package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestStdCallTable pins the stdlib table entries the analyzers read in
// place of selector names: the nine ambient time functions carry EffClock
// and clockpurity bans exactly those, called directly or through a stored
// value; the seven sync.Mutex/RWMutex methods carry their lock role; the
// EffBlock entries lockcheck reports under a lock are WaitGroup.Wait and
// time.Sleep; (time.Time).Add and (sync.WaitGroup).Add carry nothing. The
// five never-returning calls end a CFG path, and the value-flow order roles
// cover maps.Keys/Values/All (sources), every sort. and slices. function
// (sanitizers) and fmt., strings., strconv. and bytes. (order kept);
// entries that exist only for a flag keep the default mask.
func TestStdCallTable(t *testing.T) {
	clocks := []struct{ name, args string }{
		{"time.Now", ""},
		{"time.Since", "time.Time{}"},
		{"time.Until", "time.Time{}"},
		{"time.Sleep", "1"},
		{"time.After", "1"},
		{"time.Tick", "1"},
		{"time.NewTimer", "1"},
		{"time.NewTicker", "1"},
		{"time.AfterFunc", "1, func() {}"},
	}
	var names, clockEntries, blockEntries []string
	for name, sc := range stdCalls {
		if sc.mask&EffClock != 0 {
			clockEntries = append(clockEntries, name)
		}
		if sc.mask&EffBlock != 0 {
			blockEntries = append(blockEntries, name)
		}
	}
	src := "package p\n\nimport (\n\t\"sync\"\n\t\"time\"\n)\n\n"
	var want []string
	for i, c := range clocks {
		names = append(names, c.name)
		src += fmt.Sprintf("func direct%d() { %s(%s) }\n\nfunc stored%d() { f := %s; f(%s) }\n\n", i, c.name, c.args, i, c.name, c.args)
		want = append(want,
			c.name+" bypasses the Clock seam; inject a ctl.Clock instead",
			"call of f (holds "+c.name+") bypasses the Clock seam; inject a ctl.Clock instead")
	}
	src += "func unbanned(t time.Time, wg *sync.WaitGroup) { t.Add(1); wg.Add(1); _ = time.Unix(0, 0) }\n"
	sort.Strings(names)
	sort.Strings(clockEntries)
	if !slices.Equal(clockEntries, names) {
		t.Errorf("EffClock entries = %v, want %v", clockEntries, names)
	}
	sort.Strings(blockEntries)
	if want := []string{"(sync.WaitGroup).Wait", "time.Sleep"}; !slices.Equal(blockEntries, want) {
		t.Errorf("EffBlock entries = %v, want %v", blockEntries, want)
	}

	roles := map[string]lockRole{
		"(sync.Mutex).Lock":      lockAcquire,
		"(sync.Mutex).Unlock":    lockRelease,
		"(sync.Mutex).TryLock":   lockNone,
		"(sync.RWMutex).Lock":    lockAcquire,
		"(sync.RWMutex).Unlock":  lockRelease,
		"(sync.RWMutex).RLock":   lockAcquireRead,
		"(sync.RWMutex).RUnlock": lockRelease,
	}
	for _, name := range sortedKeys(roles) {
		if sc, ok := stdCalls[name]; !ok || sc.lock != roles[name] {
			t.Errorf("%s: entry %+v (present %v), want lock role %d", name, sc, ok, roles[name])
		}
	}
	for _, name := range []string{"(time.Time).Add", "(sync.WaitGroup).Add"} {
		if sc := stdCallOf(name); sc != (stdCall{}) {
			t.Errorf("%s classifies as %+v, want no effect and no lock role", name, sc)
		}
	}

	var exits []string
	for name, sc := range stdCalls {
		if sc.exits {
			exits = append(exits, name)
		}
	}
	sort.Strings(exits)
	if want := []string{"log.Fatal", "log.Fatalf", "log.Fatalln", "os.Exit", "runtime.Goexit"}; !slices.Equal(exits, want) {
		t.Errorf("exiting entries = %v, want %v", exits, want)
	}
	for _, name := range []string{"log.Fatal", "log.Fatalf", "log.Fatalln", "os.Exit", "runtime.Goexit", "maps.Keys", "maps.Values", "maps.All"} {
		if sc := stdCallOf(name); sc.mask != stdDefault {
			t.Errorf("%s: mask %b, want the default %b", name, sc.mask, stdDefault)
		}
	}
	if stdCallOf("(log.Logger).Fatal").exits {
		t.Error("(log.Logger).Fatal classifies as exiting; only the package-level log.Fatal family does")
	}
	orders := map[string]orderRole{
		"maps.Keys":                orderSource,
		"maps.Values":              orderSource,
		"maps.All":                 orderSource,
		"sort.Sort":                orderSanitize,
		"sort.Stable":              orderSanitize,
		"sort.Search":              orderSanitize,
		"sort.Strings":             orderSanitize,
		"slices.Sort":              orderSanitize,
		"slices.SortFunc":          orderSanitize,
		"fmt.Sprintf":              orderKeep,
		"fmt.Errorf":               orderKeep,
		"fmt.Sprint":               orderKeep,
		"strings.Join":             orderKeep,
		"strconv.Itoa":             orderKeep,
		"bytes.Clone":              orderKeep,
		"errors.New":               orderNone,
		"maps.Clone":               orderNone,
		"(strings.Builder).String": orderNone,
		"(sort.IntSlice).Sort":     orderNone,
	}
	for _, name := range sortedKeys(orders) {
		if got := stdCallOf(name).order; got != orders[name] {
			t.Errorf("%s: order role %d, want %d", name, got, orders[name])
		}
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := ModuleLoader(t, nil).LoadDir(dir, "snippet/stdcalls")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range RunUnscoped(t, ClockPurity, pkg) {
		got = append(got, d.Message)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Errorf("clockpurity reported:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
