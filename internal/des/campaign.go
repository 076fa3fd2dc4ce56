package des

import (
	"fmt"

	"rexchange/internal/cluster"
	"rexchange/internal/ctl"
	"rexchange/internal/obs"
	"rexchange/internal/workload"
)

// CampaignConfig parameterizes one simulated migration campaign: a
// synthetic fleet under drifting query load, observed and rebalanced by
// the full online control plane, with every query's latency accounted.
type CampaignConfig struct {
	// Machines/Shards/Fill/Seed feed workload.Generate.
	Machines int     `json:"machines"`
	Shards   int     `json:"shards"`
	Fill     float64 `json:"fill"`
	Seed     int64   `json:"seed"`

	// Rounds is the number of control windows to simulate.
	Rounds int `json:"rounds"`

	// Sim is the simulator configuration. Sim.Window paces the control
	// rounds; Sim.Seed defaults to Seed when zero so workload identity
	// follows the instance.
	Sim Config `json:"sim"`

	// Rate and Diurnal shape the synthesized arrival trace.
	Rate    float64 `json:"rate"`
	Diurnal float64 `json:"diurnal"`

	// HighWater/LowWater are the solve trigger band; Iterations and
	// Restarts the per-round solver budget; SolveSeconds the simulated
	// latency charged per solve.
	HighWater    float64 `json:"high_water"`
	LowWater     float64 `json:"low_water"`
	Iterations   int     `json:"iterations"`
	Restarts     int     `json:"restarts"`
	SolveSeconds float64 `json:"solve_seconds"`

	// ExchangeK borrows this many fleet-average exchange machines
	// (variant "kexchange"). Partitions > 1 selects the partitioned
	// parallel solver with ExchangeRounds cross-partition rounds
	// (variant "partitioned").
	ExchangeK      int `json:"exchange_k"`
	Partitions     int `json:"partitions"`
	ExchangeRounds int `json:"exchange_rounds"`

	// Bandwidth and InFlight set migration physics.
	Bandwidth float64 `json:"bandwidth"`
	InFlight  int     `json:"in_flight"`

	// Registry/Journal, when non-nil, receive control-plane and
	// simulator telemetry.
	Registry *obs.Registry `json:"-"`
	Journal  *obs.Journal  `json:"-"`
}

// DefaultCampaignConfig returns a medium campaign: a drifting fleet that
// starts balanced enough and degrades until the controller must act.
func DefaultCampaignConfig() CampaignConfig {
	return CampaignConfig{
		Machines: 100, Shards: 1500, Fill: 0.85, Seed: 1,
		Rounds: 12, Sim: DefaultConfig(),
		Rate: 200, Diurnal: 0.4,
		HighWater: 1.25, LowWater: 1.10,
		Iterations: 400, Restarts: 2, SolveSeconds: 1,
		Bandwidth: 400, InFlight: 4,
	}
}

// CampaignResult is one campaign run's outcome.
type CampaignResult struct {
	Report  Report  `json:"report"`
	Rounds  int     `json:"rounds"`
	Solves  int     `json:"solves"`
	Moves   int     `json:"moves"`   // copies committed
	Aborted int     `json:"aborted"` // copies aborted by supersession
	Final   float64 `json:"final_imbalance"`
}

// RunCampaign generates the instance, builds the simulator, and drives
// the unmodified controller against it for cfg.Rounds windows. variant
// selects the policy under test:
//
//   - "baseline": the trigger never fires; queries ride out the
//     imbalance untreated (the control group for tail inflation).
//   - "solve": plain re-solves on the home fleet.
//   - "kexchange": re-solves with ExchangeK borrowed exchange machines.
//   - "partitioned": re-solves with the partitioned parallel solver.
//
// Everything runs single-goroutine on the simulator's clock, so for a
// fixed cfg the result — including the rendered report — is
// byte-identical across runs and GOMAXPROCS values.
func RunCampaign(cfg CampaignConfig, variant string) (*CampaignResult, error) {
	// Controller.Run(0) means "until Stop", and nothing stops an offline
	// campaign: without this check it would never return.
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("des: campaign needs Rounds > 0, got %d", cfg.Rounds)
	}
	wcfg := workload.DefaultConfig()
	wcfg.Machines = cfg.Machines
	wcfg.Shards = cfg.Shards
	wcfg.TargetFill = cfg.Fill
	wcfg.Seed = cfg.Seed
	inst, err := workload.Generate(wcfg)
	if err != nil {
		return nil, err
	}
	p := inst.Placement

	high, low := cfg.HighWater, cfg.LowWater
	partitions, exchangeRounds := 0, 0
	switch variant {
	case "baseline":
		// Park the trigger far above any reachable imbalance.
		high, low = 1e18, 1
	case "solve":
	case "kexchange":
		if cfg.ExchangeK <= 0 {
			return nil, fmt.Errorf("des: kexchange variant needs ExchangeK > 0")
		}
		if p, err = cluster.BorrowExchange(p, cfg.ExchangeK); err != nil {
			return nil, err
		}
	case "partitioned":
		if cfg.Partitions <= 1 {
			return nil, fmt.Errorf("des: partitioned variant needs Partitions > 1")
		}
		partitions, exchangeRounds = cfg.Partitions, cfg.ExchangeRounds
	default:
		return nil, fmt.Errorf("des: unknown variant %q", variant)
	}

	scfg := cfg.Sim
	if scfg.Seed == 0 {
		scfg.Seed = cfg.Seed
	}
	dur := float64(cfg.Rounds) * scfg.Window
	tr, err := workload.GenerateTrace(workload.TraceConfig{
		Duration: dur, BaseRate: cfg.Rate, DiurnalAmp: cfg.Diurnal, Period: dur,
		CostMu: 0, CostSigma: 0.5, Seed: cfg.Seed + 7,
	})
	if err != nil {
		return nil, err
	}
	sim, err := New(scfg, p, tr)
	if err != nil {
		return nil, err
	}
	sim.AttachObs(cfg.Registry, cfg.Journal)

	ccfg := ctl.DefaultConfig()
	ccfg.Window = scfg.Window
	ccfg.Policy = ctl.Policy{HighWater: high, LowWater: low}
	ccfg.Budget = ctl.Budget{
		Iterations: cfg.Iterations, Restarts: cfg.Restarts,
		Partitions: partitions, ExchangeRounds: exchangeRounds,
		SolveSeconds: cfg.SolveSeconds,
	}
	ccfg.Exec.Migration.Bandwidth = cfg.Bandwidth
	if cfg.InFlight > 0 {
		ccfg.Exec.Migration.Concurrency = cfg.InFlight
	}
	ccfg.Exec.Observer = sim
	ccfg.Seed = cfg.Seed
	ccfg.Registry = cfg.Registry
	ccfg.Journal = cfg.Journal
	// With tracing on, the controller and executor join the simulator's
	// tracer: round/solve/move spans land in the same journal, and query
	// legs can name the moves that delayed them.
	ccfg.Tracer = sim.Tracer()

	c, err := ctl.New(ccfg, sim, p, sim)
	if err != nil {
		return nil, err
	}
	if err := c.Run(cfg.Rounds); err != nil {
		return nil, err
	}

	rep := sim.Report()
	ctr := c.ExecCounters()
	return &CampaignResult{
		Report:  rep,
		Rounds:  c.Status().Round,
		Solves:  c.Status().Solves,
		Moves:   ctr.Completed,
		Aborted: ctr.Aborted,
		Final:   c.Report().Imbalance,
	}, nil
}
