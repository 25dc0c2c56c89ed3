package main

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/cachesim"
	_ "repro/internal/core" // registers rlr and rlr-mc
	"repro/internal/nn"
	"repro/internal/policy"
	"repro/internal/rl"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/workloads"
)

// llc sizes. The zoo replays the whole trace on the Table III LLC scaled
// by 4 (512 sets × 16 ways), which both workloads' traces overflow many
// times, so Victim runs on most accesses. The agent trains on a prefix
// against a 256×16 cache, which the prefix also overflows, and is
// evaluated int8 on the accesses that follow the prefix.
const (
	llcTraceLen = 200_000
	llcTrainLen = 10_000
	llcEvalLen  = 60_000
)

var (
	llcCacheCfg  = uarch.ScaledConfig(1, 4).LLC
	llcTrainCfg  = cache.Config{Sets: 256, Ways: 16, LineSize: 64}
	llcTrainOpts = trainOptions()
)

// Repetitions of each kernel in the traced run's isolated NN timing.
const (
	nnForwardReps = 2000
	nnBackReps    = 200
	nnQuantReps   = 5000
)

// trainOptions is the paper's agent (175 hidden units) with minibatches
// of 16 every 16 decisions, one pass over the prefix.
func trainOptions() rl.TrainOptions {
	o := rl.DefaultTrainOptions()
	o.Agent.Hidden = 175
	o.Agent.TrainEvery = 16
	o.Agent.BatchSize = 16
	o.Epochs = 1
	return o
}

// spec returns the named workload with the seed offset added.
func spec(name string, seed uint64) (workloads.Spec, error) {
	s, err := workloads.ByName(name)
	if err != nil {
		return s, err
	}
	s.Seed += seed
	return s, nil
}

func runLLC(u *unit, seed uint64, bench string) error {
	t0 := time.Now()
	sp, err := spec(bench, seed)
	if err != nil {
		return err
	}
	accs := workloads.LLCAccesses(sp, llcTraceLen)
	u.values["workloads.gen_s"] += time.Since(t0).Seconds()
	t1 := time.Now()
	oracle := policy.NewOracle(accs, llcCacheCfg.LineSize)
	u.values["policy.oracle_build_s"] = time.Since(t1).Seconds()
	t2 := time.Now()
	trainer := rl.NewTrainer(llcTrainCfg, accs[:llcTrainLen], llcTrainOpts)
	u.values["rl.trainer_new_s"] = time.Since(t2).Seconds()
	u.setup += time.Since(t0)

	if err := replayZoo(u, accs, oracle); err != nil {
		return err
	}
	if err := trainAndEvaluate(u, trainer, accs[llcTrainLen:llcTrainLen+llcEvalLen]); err != nil {
		return err
	}
	if u.traced {
		timeNN(u)
	}
	return nil
}

// replayZoo replays the trace under every zoo policy and checks the
// accounting and that Belady wins.
func replayZoo(u *unit, accs []trace.Access, oracle *policy.Oracle) error {
	var total time.Duration
	hits := map[string]float64{}
	for _, name := range zoo {
		var p policy.Policy
		if name == "belady" {
			p = policy.NewBelady(oracle)
		} else {
			var err error
			if p, err = policy.New(name); err != nil {
				return err
			}
		}
		var tp *timedPolicy
		if u.traced {
			tp = &timedPolicy{Policy: p}
			p = tp
		}
		var st cachesim.Stats
		d := u.measure(func() { st = cachesim.RunPolicy(llcCacheCfg, p, accs) })
		total += d
		if st.Accesses != uint64(len(accs)) || st.Hits+st.Misses != st.Accesses {
			return fmt.Errorf("%s: hits %d + misses %d != accesses %d (trace %d)",
				name, st.Hits, st.Misses, st.Accesses, len(accs))
		}
		u.ops += st.Accesses
		hits[name] = st.HitRate()
		u.fidelity["cachesim.hit_pct."+name] = st.HitRate()
		n := float64(st.Accesses)
		u.values["cachesim.ns_per_access."+name] = float64(d.Nanoseconds()) / n
		if tp != nil {
			tp.record(u, name)
			u.values["cachesim.self_ns_per_access."+name] = float64(selfTime(d, tp.total()).Nanoseconds()) / n
		}
	}
	for name, h := range hits {
		if h > hits["belady"] {
			return fmt.Errorf("%s hit rate %.4f%% beats Belady %.4f%%", name, h, hits["belady"])
		}
	}
	u.values["replay_access_per_s"] = float64(len(zoo)*len(accs)) / total.Seconds()
	return nil
}

// trainAndEvaluate drives the trainer over the prefix one Step at a time,
// then replays the held-out accesses under the frozen int8 agent.
func trainAndEvaluate(u *unit, trainer *rl.Trainer, heldOut []trace.Access) error {
	var steps []float64
	if u.traced {
		steps = make([]float64, 0, llcTrainLen*llcTrainOpts.Epochs)
	}
	d := u.measure(func() {
		if !u.traced {
			for trainer.Step() {
			}
			return
		}
		for more := true; more; {
			t0 := time.Now()
			more = trainer.Step()
			steps = append(steps, float64(time.Since(t0).Nanoseconds()))
		}
	})
	trained := uint64(llcTrainLen * llcTrainOpts.Epochs)
	if trainer.TotalSteps() != trained {
		return fmt.Errorf("trainer ran %d steps, want %d", trainer.TotalSteps(), trained)
	}
	u.ops += trained
	u.values["train_access_per_s"] = float64(trained) / d.Seconds()
	if u.traced {
		u.percentiles("rl.step_ns", steps)
	}
	agent := trainer.Finish()
	tel := agent.TakeTelemetry()
	if tel.Decisions == 0 || tel.Batches == 0 {
		return fmt.Errorf("training made %d decisions and %d minibatch updates; both must be > 0",
			tel.Decisions, tel.Batches)
	}
	u.fidelity["rl.decisions"] = float64(tel.Decisions)
	u.fidelity["rl.batches"] = float64(tel.Batches)
	u.fidelity["rl.loss"] = tel.Loss

	var st cachesim.Stats
	d = u.measure(func() { st = rl.EvaluateInt8(llcTrainCfg, agent, heldOut) })
	if st.Accesses != uint64(len(heldOut)) || st.Hits+st.Misses != st.Accesses {
		return fmt.Errorf("int8 agent: hits %d + misses %d != accesses %d (held out %d)",
			st.Hits, st.Misses, st.Accesses, len(heldOut))
	}
	u.ops += st.Accesses
	u.fidelity["rl.agent_hit_pct"] = st.HitRate()
	u.values["infer_access_per_s"] = float64(len(heldOut)) / d.Seconds()
	u.values["rl.int8_ns_per_access"] = float64(d.Nanoseconds()) / float64(len(heldOut))
	return nil
}

// timeNN times the agent's kernels in isolation at the agent's shapes: a
// decision scores every way with one forward row, and a minibatch update
// runs forward and backward over BatchSize rows.
func timeNN(u *unit) {
	ways := llcTrainCfg.Ways
	batch := llcTrainOpts.Agent.BatchSize
	size := rl.NewFeaturizer(policy.Config{Config: llcTrainCfg, NumCores: 1}, rl.AllFeatures()).VectorSize()
	m := nn.NewMLP(size, 1,
		nn.LayerSpec{Units: llcTrainOpts.Agent.Hidden, Act: nn.Tanh},
		nn.LayerSpec{Units: ways, Act: nn.Linear})
	m.EnsureBatch(batch)
	xs := make([]float64, batch*size)
	for i := range xs {
		xs[i] = float64(i%7) / 7
	}
	targets := make([]float64, batch*ways)

	t0 := time.Now()
	for i := 0; i < nnForwardReps; i++ {
		m.ForwardBatch(xs[:size], 1)
	}
	u.values["nn.forward_batch_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(nnForwardReps)

	m.ForwardBatch(xs, batch)
	t0 = time.Now()
	for i := 0; i < nnBackReps; i++ {
		m.BackwardBatch(targets, batch)
	}
	u.values["nn.backward_batch_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(nnBackReps)

	q := nn.Quantize(m)
	t0 = time.Now()
	for i := 0; i < nnQuantReps; i++ {
		q.Forward(xs[:size])
	}
	u.values["nn.quant_forward_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(nnQuantReps)
}
