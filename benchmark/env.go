package main

import (
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// env is the calibration block of a record: what the host and the
// harness themselves cost, measured before any workload runs, so a
// reader can tell a noisy box from a slow program.
type env struct {
	NProc            int     `json:"nproc"`
	G                int     `json:"G"`
	GoVersion        string  `json:"go_version"`
	Revision         string  `json:"git_revision"`
	Seed             uint64  `json:"seed"`
	TrialSeconds     float64 `json:"trial_seconds"`
	TimerNs          float64 `json:"env.timer_ns"`           // cost of one now() pair, part of every latency sample
	SleepOvershootUs float64 `json:"env.sleep_overshoot_us"` // median time.Sleep(150µs): why there is no open-loop workload
	StallsPerS       float64 `json:"env.stalls_per_s"`       // gaps > 1 ms seen by a one-goroutine spin probe
}

// stallWarning is the stall rate above which tail latencies mostly
// measure the host.
const stallWarning = 10

func calibrate(cfg *config) env {
	e := env{
		NProc:        runtime.NumCPU(),
		G:            cfg.g,
		GoVersion:    runtime.Version(),
		Revision:     gitRevision(),
		Seed:         cfg.seed,
		TrialSeconds: cfg.trialDur.Seconds(),
	}

	const pairs = 200000
	var sink int64
	t0 := now()
	for i := 0; i < pairs; i++ {
		sink += now() - now()
	}
	e.TimerNs = float64(now()-t0) / pairs
	_ = sink

	var sleeps []float64
	for i := 0; i < 21; i++ {
		s := now()
		time.Sleep(150 * time.Microsecond)
		sleeps = append(sleeps, float64(now()-s)/1e3)
	}
	e.SleepOvershootUs = median(sleeps)

	stalls := 0
	start := now()
	end := start + int64(cfg.probeDur)
	for last := start; last < end; {
		t := now()
		if t-last > int64(time.Millisecond) {
			stalls++
		}
		last = t
	}
	e.StallsPerS = float64(stalls) / cfg.probeDur.Seconds()
	return e
}

// gitRevision asks git for the commit; the driver's checkout is not a
// repository, and then the answer is "unknown".
func gitRevision() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
