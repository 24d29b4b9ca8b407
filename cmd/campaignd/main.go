// Command campaignd serves the deterministic experiment engines over
// HTTP/JSON: submit a sweep or chaos campaign, stream its rows as
// NDJSON in point order, and fetch the finished artifact from the
// content-addressed cache. Campaigns checkpoint every completed point;
// a killed server resumes them on restart and the final artifact is
// byte-identical to an uninterrupted run.
//
// Usage:
//
//	campaignd -addr 127.0.0.1:8080 -checkpoint /var/lib/campaignd/ckpt -cache /var/lib/campaignd/cache
//
// Endpoints: POST /v1/jobs, GET /v1/jobs/{key}, GET /v1/jobs/{key}/rows,
// GET /v1/artifacts/{key}, GET /statusz, GET /healthz. See README.md
// "Campaign server".
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
	ckpt := flag.String("checkpoint", "", "checkpoint directory; campaigns found here resume on start (empty disables)")
	cache := flag.String("cache", "", "artifact cache directory (empty keeps artifacts in memory only)")
	queue := flag.Int("queue", 16, "admission bound on queued jobs; beyond it submissions get 503 + Retry-After")
	jobWorkers := flag.Int("job-workers", 2, "campaigns run concurrently")
	pointWorkers := flag.Int("point-workers", 0, "worker-pool size inside one campaign (0 = GOMAXPROCS); never changes results")
	burst := flag.Int("rate-burst", 0, "token-bucket burst for job admission; 0 disables rate limiting")
	refill := flag.Int("rate-refill", 1, "tokens restored per refill tick")
	refillEvery := flag.Duration("refill-every", 100*time.Millisecond, "refill tick period")
	pointDelay := flag.Duration("point-delay", 0, "artificial per-point delay (smoke-test hook; wall-clock only, never changes a row)")
	flag.Parse()

	if err := cliutil.First(
		cliutil.Positive("queue", *queue),
		cliutil.Positive("job-workers", *jobWorkers),
		cliutil.NonNegative("point-workers", *pointWorkers),
		cliutil.NonNegative("rate-burst", *burst),
		cliutil.Positive("rate-refill", *refill),
	); err != nil {
		cliutil.Fail("campaignd", err)
	}

	s, err := serve.New(serve.Config{
		Addr:          *addr,
		CheckpointDir: *ckpt,
		CacheDir:      *cache,
		QueueDepth:    *queue,
		JobWorkers:    *jobWorkers,
		PointWorkers:  *pointWorkers,
		RateBurst:     *burst,
		RateRefill:    *refill,
		RefillEvery:   *refillEvery,
		PointDelay:    *pointDelay,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaignd: %v\n", err)
		os.Exit(1)
	}
	// Subscribe before the address is announced: once a client can learn
	// the address it may send the shutdown signal, and an unsubscribed
	// SIGINT/SIGTERM would kill the process on its default disposition.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if err := s.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "campaignd: %v\n", err)
		os.Exit(1)
	}
	// The smoke driver parses this line for the bound address; keep the
	// "listening on " marker stable.
	fmt.Printf("campaignd listening on %s (engine %s)\n", s.Addr(), s.Revision())

	<-sig
	fmt.Println("campaignd shutting down")
	if err := s.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "campaignd: shutdown: %v\n", err)
		os.Exit(1)
	}
}
