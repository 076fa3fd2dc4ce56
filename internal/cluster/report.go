package cluster

import (
	"fmt"

	"rexchange/internal/stats"
	"rexchange/internal/vec"
)

// Report summarizes the balance quality of a placement: maximum and mean
// machine utilization, the max/mean imbalance ratio that is the paper's
// primary objective, dispersion statistics, and per-resource static
// pressure. Vacant machines are excluded from load statistics — machines
// being handed back as compensation serve no queries — but their count is
// reported.
type Report struct {
	// Machines is the number of serving (non-vacant) machines.
	Machines int
	// Vacant is the number of machines hosting no shards.
	Vacant int

	// MaxUtil is the highest load/speed among serving machines — the
	// normalized makespan minimized by the IP objective.
	MaxUtil float64
	// MinUtil is the lowest load/speed among serving machines.
	MinUtil float64
	// MeanUtil is the load-capacity-weighted ideal utilization:
	// totalLoad / totalSpeed over serving machines.
	MeanUtil float64
	// Imbalance is MaxUtil/MeanUtil (1.0 = perfect balance).
	Imbalance float64
	// StdDev and CV are dispersion of per-machine utilization.
	StdDev float64
	CV     float64
	// Gini is the Gini coefficient of per-machine utilization.
	Gini float64

	// StaticPressure is, per resource, the maximum used/capacity over all
	// machines (how close the tightest machine is to a static limit).
	StaticPressure vec.Vec
}

// Report computes the balance report of p. Machines hosting no shards are
// excluded from utilization statistics but counted in Vacant.
func (p *Placement) Report() Report {
	c := p.c
	var utils []float64
	var totalLoad, totalSpeed float64
	var pressure vec.Vec
	vacant := 0
	for m := 0; m < c.NumMachines(); m++ {
		id := MachineID(m)
		if p.IsVacant(id) {
			vacant++
			continue
		}
		u := p.Utilization(id)
		utils = append(utils, u)
		totalLoad += p.Load(id)
		totalSpeed += c.Machines[m].Speed
		used := p.Used(id)
		capV := c.Machines[m].Capacity
		for r := 0; r < vec.NumResources; r++ {
			if capV[r] > 0 {
				if ratio := used[r] / capV[r]; ratio > pressure[r] {
					pressure[r] = ratio
				}
			} else if used[r] > 0 {
				pressure[r] = 1
			}
		}
	}
	rep := Report{
		Machines:       len(utils),
		Vacant:         vacant,
		StaticPressure: pressure,
	}
	if len(utils) == 0 {
		return rep
	}
	rep.MaxUtil = stats.Max(utils)
	rep.MinUtil = stats.Min(utils)
	if totalSpeed > 0 {
		rep.MeanUtil = totalLoad / totalSpeed
	}
	if rep.MeanUtil > 0 {
		rep.Imbalance = rep.MaxUtil / rep.MeanUtil
	} else {
		rep.Imbalance = 1
	}
	rep.StdDev = stats.StdDev(utils)
	rep.CV = stats.CV(utils)
	rep.Gini = stats.Gini(utils)
	return rep
}

// String renders the report as a one-line summary used by CLI output.
func (r Report) String() string {
	return fmt.Sprintf("machines=%d vacant=%d max=%.4f mean=%.4f imb=%.4f cv=%.4f gini=%.4f pressure=%s",
		r.Machines, r.Vacant, r.MaxUtil, r.MeanUtil, r.Imbalance, r.CV, r.Gini, r.StaticPressure)
}
