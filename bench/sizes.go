package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// sizes are the input sizes of every workload. A result file records
// them, and compare mode refuses results whose sizes differ.
type sizes struct {
	Name      string `json:"name"`
	MinJobs   int    `json:"min_jobs"`   // measured calls per run, at least
	SetupReps int    `json:"setup_reps"` // set-up passes per run; setup_s is their median

	PaperArgs []string `json:"paper_args"` // cmd/paper flags

	CertSpecs []string `json:"cert_specs"` // certified with single-fault enumeration

	CampaignSpecs  []string  `json:"campaign_specs"`
	CampaignRates  []float64 `json:"campaign_rates"`
	CampaignCycles int       `json:"campaign_cycles"`
	ResumeAfter    int       `json:"resume_after_rows"` // rows streamed before the server is closed
	CacheFetches   int       `json:"cache_fetches"`

	FractLevels int       `json:"fract_levels"`
	FractRates  []float64 `json:"fract_rates"`
	FractCycles int       `json:"fract_cycles"`
}

// flits is the packet length of every generated workload, the paper's
// standard 8-flit packet.
const flits = 8

// geometric returns n rates from first, each step times factor.
func geometric(first, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i, r := 0, first; i < n; i, r = i+1, r*factor {
		out[i] = r
	}
	return out
}

// certSpecs is every built-in spec below level 3. The two level-3
// fractahedra take minutes to certify with faults and cannot repeat
// inside a run.
func certSpecs() []string {
	var out []string
	for _, s := range core.BuiltinSpecs() {
		if !strings.Contains(s, "levels=3") {
			out = append(out, s)
		}
	}
	return out
}

func sizesFor(name string) (sizes, error) {
	def := sizes{
		Name: "default", MinJobs: 2, SetupReps: 5,
		PaperArgs:      []string{},
		CertSpecs:      certSpecs(),
		CampaignSpecs:  []string{"fat-fract:levels=2", "thin-fract:levels=2", "fattree:d=4,u=2,nodes=64", "mesh:cols=6,rows=6,nodes=2"},
		CampaignRates:  geometric(0.001, 1.45, 12),
		CampaignCycles: 3000, ResumeAfter: 16, CacheFetches: 200,
		FractLevels: 3, FractRates: []float64{0.004, 0.008, 0.016, 0.032}, FractCycles: 2000,
	}
	switch name {
	case "default":
		return def, nil
	case "smoke":
		return sizes{
			Name: "smoke", MinJobs: 1, SetupReps: 1,
			PaperArgs:      []string{"-quick"},
			CertSpecs:      []string{"fat-fract:levels=1", "ring:size=4", "mesh:cols=4,rows=4,nodes=2"},
			CampaignSpecs:  []string{"fat-fract:levels=2"},
			CampaignRates:  geometric(0.004, 2, 6),
			CampaignCycles: 300, ResumeAfter: 2, CacheFetches: 10,
			FractLevels: 2, FractRates: []float64{0.004, 0.032}, FractCycles: 300,
		}, nil
	}
	return sizes{}, fmt.Errorf("unknown size %q (want smoke or default)", name)
}
