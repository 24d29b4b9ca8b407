package servernet

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topology"
)

func fractSystem(t *testing.T) *core.System {
	t.Helper()
	sys, _, err := core.NewFatFractahedron(1)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// A write completes when its ack returns: latency spans the round trip.
func TestWriteAcknowledged(t *testing.T) {
	sys := fractSystem(t)
	e := NewEngine(sys, sim.Config{})
	id := e.WriteTx(0, 7, 16, 0)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("completed = %d", res.Completed)
	}
	o := res.Outcomes[id]
	fwd, _ := sys.Tables.Route(0, 7)
	rev, _ := sys.Tables.Route(7, 0)
	// Round trip: the data tail lands at cycle fwd.hops+flits, the ack
	// injects the following cycle and lands rev.hops+AckFlits later.
	want := (fwd.RouterHops() + 16) + 1 + (rev.RouterHops() + AckFlits)
	if o.Completed != want {
		t.Errorf("write completion = %d, want %d", o.Completed, want)
	}
	if res.Sim.Delivered != 2 {
		t.Errorf("packets delivered = %d, want 2 (data + ack)", res.Sim.Delivered)
	}
}

// A read completes when the data response arrives.
func TestReadResponse(t *testing.T) {
	sys := fractSystem(t)
	e := NewEngine(sys, sim.Config{})
	id := e.ReadTx(2, 5, 32, 0)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.Outcomes[id].Completed == 0 {
		t.Fatalf("read did not complete: %+v", res)
	}
	if res.Sim.Delivered != 2 {
		t.Errorf("packets = %d, want request + response", res.Sim.Delivered)
	}
}

// §3.3's motivating scenario: a disk controller writes data to a CPU and
// then raises an interrupt. On fixed-path ServerNet routing the interrupt
// can never overtake the data, regardless of congestion.
func TestInterruptNeverOvertakesData(t *testing.T) {
	sys := fractSystem(t)
	e := NewEngine(sys, sim.Config{FIFODepth: 2})
	controller, cpu := 6, 1
	// Background congestion on the same paths.
	for i := 0; i < 4; i++ {
		e.WriteTx(7, cpu, 24, 0)
	}
	e.WriteTx(controller, cpu, 64, 0)
	e.InterruptTx(controller, cpu, 1)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.InterruptOvertakes != 0 {
		t.Errorf("interrupt overtook its data %d times", res.InterruptOvertakes)
	}
	if res.Completed != 6 {
		t.Errorf("completed = %d, want 6", res.Completed)
	}
	if res.Sim.InOrderViolations != 0 {
		t.Errorf("network order violations = %d", res.Sim.InOrderViolations)
	}
}

// Sustained transaction mix across the 16-node system: everything
// completes, in order, without deadlock.
func TestTransactionMixUnderLoad(t *testing.T) {
	sys := fractSystem(t)
	e := NewEngine(sys, sim.Config{FIFODepth: 4})
	n := sys.Net.NumNodes()
	txCount := 0
	for s := 0; s < n; s++ {
		for k := 0; k < 3; k++ {
			d := (s + 3 + 2*k) % n
			if d == s {
				continue
			}
			switch k % 3 {
			case 0:
				e.WriteTx(s, d, 12, k*5)
			case 1:
				e.ReadTx(s, d, 20, k*5)
			case 2:
				e.WriteTx(s, d, 8, k*5)
				e.InterruptTx(s, d, k*5+1)
				txCount++
			}
			txCount++
		}
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.Deadlocked {
		t.Fatal("transaction mix deadlocked")
	}
	if res.Completed != txCount {
		t.Errorf("completed %d of %d transactions", res.Completed, txCount)
	}
	if res.InterruptOvertakes != 0 {
		t.Errorf("interrupt overtakes = %d", res.InterruptOvertakes)
	}
	if res.AvgLatency <= 0 {
		t.Error("no latency recorded")
	}
}

// The engine works over any routed system, e.g. the 64-node fat tree.
func TestTransactionsOnFatTree(t *testing.T) {
	sys, _, err := core.NewFatTree(4, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(sys, sim.Config{})
	e.WriteTx(48, 0, 16, 0)
	e.ReadTx(12, 60, 24, 0)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 || res.Sim.Deadlocked {
		t.Fatalf("%+v", res)
	}
}

func TestKindStrings(t *testing.T) {
	if Write.String() != "write" || Read.String() != "read" || Interrupt.String() != "interrupt" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

// BenchmarkTransactionLayer measures the ServerNet protocol engine over the
// 16-node system: reads, DMA writes with acks, completion interrupts.
func BenchmarkTransactionLayer(b *testing.B) {
	cfg := topology.Tetra(1, false)
	cfg.Fanout = true
	sys, _, err := core.NewFractahedron(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(sys, sim.Config{FIFODepth: 4})
		for cpu := 0; cpu < 8; cpu++ {
			ctrl := 8 + cpu
			e.ReadTx(cpu, ctrl, 32, 0)
			e.WriteTx(ctrl, cpu, 48, 5)
			e.InterruptTx(ctrl, cpu, 6)
		}
		res, err := e.Run()
		if err != nil || res.InterruptOvertakes != 0 || res.Completed != 24 {
			b.Fatalf("err=%v overtakes=%d completed=%d", err, res.InterruptOvertakes, res.Completed)
		}
	}
}
