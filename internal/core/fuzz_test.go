package core

import "testing"

// FuzzParseSystem checks that arbitrary spec strings never panic the parser
// or the builders behind it, and that accepted specs produce valid systems.
func FuzzParseSystem(f *testing.F) {
	for _, seed := range []string{
		"fat-fract:levels=2",
		"thin-fract:levels=1,fanout",
		"fat-fract:levels=2,populate=40",
		"fattree:d=4,u=2,nodes=64",
		"mesh:cols=3,rows=3,nodes=1",
		"hypercube:dim=3,updown",
		"ring:size=4,unsafe",
		"fullmesh:m=4",
		"ccc:dim=3",
		"shuffle:dim=4",
		"",
		"mesh:cols=0",
		"fat-fract:levels=-1",
		"ring:size=999999999",
		"fat-fract:levels=2,populate=-5",
		"junk:::,,,===",
		"ring:size=1,bogus=1",
		"fat-fract:levels=4,bogus=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		// ParseSystem turns the builders' validation panics into errors, so
		// any panic is a failure. Bound sizes so the fuzzer explores
		// structure, not memory limits.
		if len(spec) > 64 {
			return
		}
		num := 0
		for _, c := range spec {
			if c >= '0' && c <= '9' {
				num = num*10 + int(c-'0')
				if num > 8 {
					return
				}
			} else {
				num = 0
			}
		}
		sys, name, err := ParseSystem(spec)
		if err != nil {
			return
		}
		if sys == nil || name == "" {
			t.Fatalf("accepted spec %q without a system", spec)
		}
		if verr := sys.Net.Validate(); verr != nil {
			t.Fatalf("spec %q built an invalid network: %v", spec, verr)
		}
	})
}
