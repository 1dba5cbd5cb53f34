package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/progs"
	"repro/internal/vm"
)

func runTable1(cfg Config) (*Result, error) {
	res := &Result{ID: "table1", Title: "benchmark suite (the paper's Table 1, for this repository's stand-ins)"}
	t := &metrics.Table{Headers: []string{"benchmark", "models", "workload", "instructions", "predictions"}}
	benches := cfg.benchmarks()
	rows := make([][]string, len(benches))
	s := newSweep(cfg)
	for i, name := range benches {
		i, name := i, name
		s.AddTask(func() error {
			b, err := progs.Get(name)
			if err != nil {
				return err
			}
			p, err := progs.Program(name)
			if err != nil {
				return err
			}
			budget := cfg.budget()
			if b.SelfTerminating {
				budget = 0
			}
			c := vm.New(p, false)
			if err := c.Run(budget); err != nil && err != vm.ErrBudget {
				return fmt.Errorf("running %s: %w", name, err)
			}
			rows[i] = []string{name, b.Model, b.Description,
				fmt.Sprint(c.Executed), fmt.Sprint(c.Emitted)}
			return nil
		})
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	res.Tables = append(res.Tables, t)
	res.addNote("the paper traces 200M instructions per benchmark (122M-157M predictions); this run uses a %d-instruction budget — scale with -budget", cfg.budget())
	return res, nil
}

func init() {
	register(Experiment{
		ID:       "table1",
		Title:    "benchmark descriptions and prediction counts",
		Artifact: "Table 1",
		Run:      runTable1,
	})
}
