// Command fabricver statically verifies whole fabrics: for a topology ×
// routing pair it proves CDG acyclicity from the concrete routing tables,
// routing-table consistency (every entry live, within the analytical hop
// bound), full endpoint reachability (the paper's CPU→disk database
// pattern), exact path-disable enforcement, and single-fault
// survivability (every link and every router failed in turn, the degraded
// fabric re-routed and re-proved). It emits a machine-readable JSON
// certificate per spec.
//
// Usage:
//
//	fabricver -spec fat-fract:levels=2
//	fabricver -spec ring:size=4,unsafe         # exits 3, prints the minimal cycle
//	fabricver -all                             # certify every built-in pair
//	fabricver -all -json -certdir certs        # write certs/<spec>.json each
//
// Exit status: 0 when every check passes, 1 on a build/usage error, 3 when
// any verification check is violated (matching netsim's deadlock exit).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/fabricver"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one fabricver invocation with the given arguments,
// printing results to stdout and diagnostics to stderr, and returns the
// exit status.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("fabricver", flag.ContinueOnError)
	spec := fs.String("spec", "", "verify one topology specification (see fractagen)")
	all := fs.Bool("all", false, "verify every built-in topology × routing pair")
	jsonOut := fs.Bool("json", false, "print certificates as JSON instead of the human rendering")
	certDir := fs.String("certdir", "", "also write one <spec>.json certificate per spec into this directory")
	noFaults := fs.Bool("no-faults", false, "skip the single-fault enumeration")
	workers := fs.Int("workers", 0, "fault-enumeration worker pool size (0 = GOMAXPROCS; result is identical)")
	if err := fs.Parse(args); err != nil {
		// The exit statuses flag.ExitOnError would have used.
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *all == (*spec != "") {
		fmt.Fprintln(os.Stderr, "fabricver: exactly one of -spec or -all is required")
		fs.Usage()
		return 1
	}
	opt := fabricver.Options{Workers: *workers, SkipFaults: *noFaults}

	specs := []string{*spec}
	if *all {
		specs = core.BuiltinSpecs()
	}

	if *certDir != "" {
		if err := os.MkdirAll(*certDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "fabricver: %v\n", err)
			return 1
		}
	}

	violated := false
	certs := make([]fabricver.Certificate, 0, len(specs))
	for _, s := range specs {
		cert, err := fabricver.VerifySpec(s, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fabricver: %s: %v\n", s, err)
			return 1
		}
		certs = append(certs, cert)
		if !cert.OK {
			violated = true
		}
		if *certDir != "" {
			b, err := fabricver.MarshalCertificate(cert)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fabricver: %v\n", err)
				return 1
			}
			path := filepath.Join(*certDir, fabricver.CertFileName(s))
			if err := os.WriteFile(path, b, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "fabricver: %v\n", err)
				return 1
			}
		}
	}

	switch {
	case *jsonOut && *all:
		// One JSON array for the whole matrix.
		fmt.Fprint(stdout, "[\n")
		for i, cert := range certs {
			b, err := fabricver.MarshalCertificate(cert)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fabricver: %v\n", err)
				return 1
			}
			sep := ","
			if i == len(certs)-1 {
				sep = ""
			}
			fmt.Fprintf(stdout, "%s%s", string(b[:len(b)-1]), sep+"\n")
		}
		fmt.Fprint(stdout, "]\n")
	case *jsonOut:
		b, err := fabricver.MarshalCertificate(certs[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "fabricver: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, string(b))
	case *all:
		for _, cert := range certs {
			fmt.Fprintln(stdout, cert.Summary())
		}
		fmt.Fprintln(stdout, verdict(certs))
	default:
		certs[0].Render(stdout)
	}

	if violated {
		return 3
	}
	return 0
}

// verdict is the one-line summary under the -all matrix. It claims only
// what was proved: single-fault survivability appears only when every
// certificate carries a fault enumeration (not under -no-faults).
func verdict(certs []fabricver.Certificate) string {
	faults := true
	for _, c := range certs {
		if !c.OK {
			return "=> FAILED: violations in the matrix above"
		}
		faults = faults && c.Faults != nil
	}
	props := []string{"acyclic CDG", "consistent tables", "full reachability", "exact disables"}
	if faults {
		props = append(props, "single-fault survivable")
	}
	return fmt.Sprintf("=> all %d topology-routing pairs verified: %s", len(certs), strings.Join(props, ", "))
}
