package cluster

import (
	"context"
	"fmt"
	"math"

	"hetpipe/internal/train"
)

// SideCounts are one backend's protocol counters.
type SideCounts struct {
	Minibatches, Pushes, Pulls, MaxClockDistance, MaxStaleness int
}

// ConformanceReport compares the two backends on one configuration.
type ConformanceReport struct {
	Sim, Live SideCounts
	// Want holds the analytically expected counts from the protocol
	// arithmetic (wsp.Params), which both backends must hit exactly.
	Want SideCounts
	// MaxWeightDiff is the largest absolute per-coordinate difference
	// between the two final weight vectors. The backends fold the same
	// updates in the same order, so anything but 0 fails.
	MaxWeightDiff float64
	// NonFinite counts the NaN or infinite coordinates of the two final
	// weight vectors together; any is a failure no difference can show.
	NonFinite int
	// DBound is the protocol guarantee D+1 on the clock distance, SGlobal the
	// one on the staleness either side observed (wsp.Params.SGlobal).
	DBound, SGlobal int
	// Crashes, Recoveries, and ReplayedMinibatches report the live half's
	// fault activity (zero for a fault-free configuration).
	Crashes, Recoveries, ReplayedMinibatches int
}

// Err reports nil when the backends conform: counts match the protocol
// arithmetic, neither side violates the D-bound or the staleness bound, and
// the final weights are finite and bit for bit the same.
func (r *ConformanceReport) Err() error {
	if r.Sim.Minibatches != r.Want.Minibatches || r.Live.Minibatches != r.Want.Minibatches {
		return fmt.Errorf("cluster: minibatches sim=%d live=%d want=%d", r.Sim.Minibatches, r.Live.Minibatches, r.Want.Minibatches)
	}
	if r.Sim.Pushes != r.Want.Pushes || r.Live.Pushes != r.Want.Pushes {
		return fmt.Errorf("cluster: pushes sim=%d live=%d want=%d", r.Sim.Pushes, r.Live.Pushes, r.Want.Pushes)
	}
	if r.Sim.Pulls != r.Want.Pulls || r.Live.Pulls != r.Want.Pulls {
		return fmt.Errorf("cluster: pulls sim=%d live=%d want=%d", r.Sim.Pulls, r.Live.Pulls, r.Want.Pulls)
	}
	if r.Sim.MaxClockDistance > r.DBound {
		return fmt.Errorf("cluster: simulator clock distance %d exceeds D+1=%d", r.Sim.MaxClockDistance, r.DBound)
	}
	if r.Live.MaxClockDistance > r.DBound {
		return fmt.Errorf("cluster: live clock distance %d exceeds D+1=%d", r.Live.MaxClockDistance, r.DBound)
	}
	if r.Sim.MaxStaleness > r.SGlobal || r.Live.MaxStaleness > r.SGlobal {
		return fmt.Errorf("cluster: observed staleness sim=%d live=%d exceeds sglobal=%d", r.Sim.MaxStaleness, r.Live.MaxStaleness, r.SGlobal)
	}
	if r.NonFinite > 0 {
		return fmt.Errorf("cluster: %d non-finite final weights", r.NonFinite)
	}
	if r.MaxWeightDiff != 0 {
		return fmt.Errorf("cluster: final weights diverge by %g", r.MaxWeightDiff)
	}
	return nil
}

// String renders the report for CLIs.
func (r *ConformanceReport) String() string {
	verdict := "CONFORMANT"
	if err := r.Err(); err != nil {
		verdict = "DIVERGENT: " + err.Error()
	}
	faults := ""
	if r.Crashes > 0 || r.Recoveries > 0 {
		faults = fmt.Sprintf("live faults: %d crashes, %d recoveries, %d minibatches replayed\n",
			r.Crashes, r.Recoveries, r.ReplayedMinibatches)
	}
	return fmt.Sprintf(
		"sim:  minibatches=%d pushes=%d pulls=%d maxClockDistance=%d\n"+
			"live: minibatches=%d pushes=%d pulls=%d maxClockDistance=%d\n"+
			"want: minibatches=%d pushes=%d pulls=%d (D-bound %d)\n"+
			"max staleness observed: sim=%d live=%d (sglobal %d)\n"+
			"%smax |w_sim - w_live| = %.3g (must be 0)\n%s",
		r.Sim.Minibatches, r.Sim.Pushes, r.Sim.Pulls, r.Sim.MaxClockDistance,
		r.Live.Minibatches, r.Live.Pushes, r.Live.Pulls, r.Live.MaxClockDistance,
		r.Want.Minibatches, r.Want.Pushes, r.Want.Pulls, r.DBound,
		r.Sim.MaxStaleness, r.Live.MaxStaleness, r.SGlobal,
		faults, r.MaxWeightDiff, verdict)
}

// RunConformance executes one configuration through the simulator's numerics
// (train.RunWSP — timing never reaches them, so no clock is run) and the live
// runtime (Run), and compares them. This is the differential harness that
// flushed out the clock/timing fidelity bugs this package exists to guard
// against (PipeDream and Narayanan et al. validate their schedulers the same
// way: real execution path against the analytical model).
//
// The live half runs cfg as given; the simulator reads only its protocol
// configuration (Task, Workers, SLocal, D, LR, MaxMinibatches) and runs
// fault-free and uninterrupted. This is the strongest form of the claim —
// faults, even crash-plus-recovery, emulated step time and a resumed
// checkpoint may reshape the live run's wall clock and recovery counters, but
// its protocol counts and final weights must still match the simulation
// exactly. ctx cancels either half: the simulator checks it once per
// minibatch round.
func RunConformance(ctx context.Context, cfg Config) (*ConformanceReport, error) {
	// Checked before the simulator derives its settings from cfg, so a bad
	// config fails with the error Run gives it.
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := cfg.params().Validate(); err != nil {
		return nil, err
	}
	sim, err := simulate(ctx, cfg)
	if err != nil {
		return nil, err
	}
	live, err := Run(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: live runtime: %w", err)
	}
	params := cfg.params()
	report := &ConformanceReport{
		Sim:  SideCounts{sim.Minibatches, sim.Pushes, sim.Pulls, sim.MaxClockDistance, sim.MaxStaleness},
		Live: SideCounts{live.Minibatches, live.Pushes, live.Pulls, live.MaxClockDistance, live.MaxStaleness},
		Want: SideCounts{
			Minibatches: cfg.Workers * cfg.MaxMinibatches,
			Pushes:      cfg.Workers * params.CompleteWaves(cfg.MaxMinibatches),
			Pulls:       cfg.Workers * params.GatedPulls(cfg.MaxMinibatches),
		},
		DBound:              cfg.D + 1,
		SGlobal:             params.SGlobal(),
		Crashes:             live.Crashes,
		Recoveries:          live.Recoveries,
		ReplayedMinibatches: live.ReplayedMinibatches,
	}
	if len(sim.FinalWeights) != len(live.FinalWeights) {
		return nil, fmt.Errorf("cluster: weight dimensions diverge: %d vs %d", len(sim.FinalWeights), len(live.FinalWeights))
	}
	for i, s := range sim.FinalWeights {
		l := live.FinalWeights[i]
		if d := math.Abs(s - l); d > report.MaxWeightDiff {
			report.MaxWeightDiff = d
		}
		for _, x := range [2]float64{s, l} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				report.NonFinite++
			}
		}
	}
	return report, nil
}

// simulate runs cfg's protocol configuration through the simulator's
// numerics.
func simulate(ctx context.Context, cfg Config) (*train.RunStats, error) {
	sim, err := train.RunWSP(ctx, train.WSPConfig{
		Task: cfg.Task, Workers: cfg.Workers, SLocal: cfg.SLocal, D: cfg.D,
		LR: cfg.LR, MaxMinibatches: cfg.MaxMinibatches,
		// Evaluation cadence is irrelevant to conformance; keep it rare.
		EvalEvery: cfg.MaxMinibatches * cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: simulator: %w", err)
	}
	return sim, nil
}
