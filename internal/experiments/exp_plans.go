package experiments

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"time"

	"starmesh/internal/exptab"
	"starmesh/internal/mesh"
	"starmesh/internal/meshsim"
	"starmesh/internal/perm"
	"starmesh/internal/simd"
	"starmesh/internal/starsim"
	"starmesh/internal/workload"
)

// planSweep runs the standard mesh-route sweep on S_n with plans
// enabled or disabled and returns the machine's final counters, port
// uses, a register checksum and the wall time of a second (warm)
// sweep — recording cost excluded, so the timing isolates replay vs
// closure resolution.
func planSweep(n int, plans bool) (simd.Stats, []int64, int64, time.Duration) {
	m := starsim.New(n, simd.WithPlans(plans))
	workload.EngineSweep(m) // warm: records plans / builds route tables
	m.ResetStats()
	start := time.Now()
	workload.EngineSweep(m)
	elapsed := time.Since(start)
	return m.Stats(), m.PortUses(), workload.RegChecksum(m, "W"), elapsed
}

// PlansParity checks the compiled-route-plan contract: replaying a
// plan must be bit-identical — Stats, PortUses, registers, conflict
// counts — to resolving the same schedule through PortFunc closures,
// including on schedules with deliberate receive conflicts and on a
// machine that only ever replays plans recorded by another machine.
// Timings are reported for context; the correctness columns are the
// experiment.
func PlansParity(w io.Writer) error {
	t := exptab.New("Compiled route plans: replay vs closure resolution (mesh-route sweep on S_n)",
		"n", "PEs", "unit-routes", "conflicts", "stats-identical", "uses-identical", "regs-identical")
	type timing struct {
		n                    int
		closureTime, repTime time.Duration
	}
	var timings []timing
	for n := 4; n <= 7; n++ {
		cStats, cUses, cSum, cTime := planSweep(n, false)
		pStats, pUses, pSum, pTime := planSweep(n, true)
		statsOK := cStats == pStats
		usesOK := reflect.DeepEqual(cUses, pUses)
		regsOK := cSum == pSum
		t.Add(n, int(perm.Factorial(n)), cStats.UnitRoutes, cStats.ReceiveConflicts,
			statsOK, usesOK, regsOK)
		if !statsOK || !usesOK || !regsOK {
			return fmt.Errorf("plan replay diverged from closure resolution at n=%d", n)
		}
		timings = append(timings, timing{n, cTime, pTime})
	}
	t.Fprint(w)

	// A deliberately conflicting schedule: on a 1×16 mesh every PE
	// transmits toward the center, so the center cell receives two
	// messages per route. Conflict counts and the first-message-wins
	// delivery must survive compilation.
	conflictRun := func(plans bool) (simd.Stats, []int64) {
		m := meshsim.New(mesh.New(16), simd.WithPlans(plans))
		m.AddReg("V")
		m.AddReg("W")
		m.Set("V", func(pe int) int64 { return int64(pe + 1) })
		toward := func(pe int) int {
			if pe < 8 {
				return meshsim.Port(0, +1)
			}
			return meshsim.Port(0, -1)
		}
		schedule := func() { m.RouteB("V", "W", toward) }
		if plans {
			// Record once, replay twice — both executions must count
			// the conflict again.
			plan := m.Record(schedule)
			m.Replay(plan)
			m.Replay(plan)
		} else {
			schedule()
			schedule()
			schedule()
		}
		return m.Stats(), append([]int64(nil), m.Reg("W")...)
	}
	cStats, cRegs := conflictRun(false)
	pStats, pRegs := conflictRun(true)
	if cStats != pStats || !reflect.DeepEqual(cRegs, pRegs) {
		return fmt.Errorf("conflicting schedule diverged under plan replay: closure %+v, plan %+v", cStats, pStats)
	}
	if cStats.ReceiveConflicts == 0 {
		return fmt.Errorf("conflict schedule produced no conflicts — parity check is vacuous")
	}
	fmt.Fprintf(w, "\nconflict schedule: %d receive conflicts, identical under replay: true\n",
		pStats.ReceiveConflicts)

	// Cross-machine reuse: record the sweep's plans on one machine,
	// then run a second machine of the same shape that replays them
	// from the shared cache.
	recorder := starsim.New(5, simd.WithPlans(true))
	workload.EngineSweep(recorder)
	replayer := starsim.New(5, simd.WithPlans(true))
	workload.EngineSweep(replayer)
	if recorder.Stats() != replayer.Stats() ||
		workload.RegChecksum(recorder, "W") != workload.RegChecksum(replayer, "W") {
		return fmt.Errorf("plan reuse across machines diverged")
	}
	fmt.Fprintf(w, "cross-machine reuse (S_5): second machine replayed shared plans, results identical: true\n")

	fmt.Fprintf(w, "\nmeasured on this host with GOMAXPROCS=%d (informative, not part of the parity check):\n",
		runtime.GOMAXPROCS(0))
	for _, tm := range timings {
		speedup := float64(tm.closureTime) / float64(tm.repTime)
		fmt.Fprintf(w, "  n=%d: closure %v, replay %v (speedup %.2fx)\n",
			tm.n, tm.closureTime.Round(time.Microsecond), tm.repTime.Round(time.Microsecond), speedup)
	}
	return nil
}
