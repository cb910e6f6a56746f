package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"
)

// benchSpec is the part of BENCHMARK.json the smoke run checks against.
type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// runSmoke runs every workload of the benchmark definition once at reduced
// length, timed and traced, and fails on a failed operation (a nonzero
// error rate) and on any declared metric that is missing, not finite or in
// the wrong unit.
func runSmoke(ctx context.Context, specPath, out string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	var problems []error
	for _, wd := range spec.Workloads {
		w, err := workloadByName(wd.Name)
		if err != nil {
			return err
		}
		cfg := config{seed: 1, seconds: time.Second, setups: 1, prefix: 0.1, out: out}
		for _, mode := range []struct {
			name    string
			run     func(context.Context, *workloadDef, config) (result, error)
			metrics []struct{ Name, Unit string }
		}{{"timed", timed, spec.EndToEnd}, {"traced", traced, spec.PerLayer}} {
			res, err := mode.run(ctx, w, cfg)
			if err != nil {
				problems = append(problems, fmt.Errorf("%s %s: %w", w.name, mode.name, err))
				continue
			}
			errs := checkResult(res, mode.metrics)
			for _, e := range errs {
				problems = append(problems, fmt.Errorf("%s %s: %w", w.name, mode.name, e))
			}
			fmt.Fprintf(os.Stderr, "perfbench smoke: %s %s: %d attempted, %d failed, %d metrics, %d problems\n",
				w.name, mode.name, res.Attempted, res.Failed, len(res.Metrics), len(errs))
		}
	}
	return errors.Join(problems...)
}

func checkResult(res result, want []struct{ Name, Unit string }) []error {
	var errs []error
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		errs = append(errs, fmt.Errorf("correct %v, error rate %d/%d", res.Correct, res.Failed, res.Attempted))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s missing", m.Name))
		case !finite(got.Value):
			errs = append(errs, fmt.Errorf("metric %s is %v", m.Name, got.Value))
		case got.Unit != m.Unit:
			errs = append(errs, fmt.Errorf("metric %s in %s, declared %s", m.Name, got.Unit, m.Unit))
		}
	}
	return errs
}
