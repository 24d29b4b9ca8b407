package analyzers

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// BenchmarkSimlintAll times one full static-analysis pass — every
// analyzer, including the concurrency family behind the code deadlock
// certificate, over every internal package. Loading and type-checking is
// hoisted out of the timer: the benchmark measures the analysis itself,
// the cost `make lint-concurrency` and `simlint -certify` add to the CI
// gate beyond compilation.
func BenchmarkSimlintAll(b *testing.B) {
	pkgs, err := load.Packages(".", "repro/internal/...")
	if err != nil {
		b.Fatal(err)
	}
	all := All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var total int
		for _, p := range pkgs {
			findings, _, err := analysis.Run(all, p.Fset, p.Files, p.Types, p.TypesInfo)
			if err != nil {
				b.Fatal(err)
			}
			total += len(findings)
		}
		if total != 0 {
			b.Fatalf("simlint found %d findings on the clean tree", total)
		}
	}
}
