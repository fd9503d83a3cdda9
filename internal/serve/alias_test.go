package serve_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"fafnir"
	"fafnir/internal/embedding"
	"fafnir/internal/serve"
	"fafnir/internal/tensor"
)

// TestRepliesOutliveTheNextFlush holds one response while the handler's
// reply encoder renders it over and over, and runs further flushes through
// the same backend meanwhile: the backends reuse their per-batch working
// state, so a response whose outputs were backed by it would change under
// the encoder (and, under -race, race with the next flight). Every rendering
// must be the first one's bytes, and the held outputs must still be the
// golden fold. It runs on each backend, with the cache off and on.
func TestRepliesOutliveTheNextFlush(t *testing.T) {
	sys, err := fafnir.NewSystem(fafnir.SystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := fafnir.NewFleet(fafnir.FleetConfig{Shards: 4, Rows: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	fed, err := fafnir.NewFederation(fafnir.FederationConfig{Fleets: 2, Fleet: fafnir.FleetConfig{Shards: 4, Rows: 1 << 17}})
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range []struct {
		name   string
		be     serve.Backend
		gen    func(n int, seed int64) (embedding.Batch, error)
		golden func(embedding.Batch) ([]tensor.Vector, error)
	}{
		{"system", sys, sys.GenerateBatch, sys.Golden},
		{"fleet", fleet, fleet.GenerateBatch, func(b embedding.Batch) ([]tensor.Vector, error) {
			return b.Golden(fleet.Store())
		}},
		// Every member of a federation holds a copy of the global store.
		{"federation", fed, fed.GenerateBatch, func(b embedding.Batch) ([]tensor.Vector, error) {
			return b.Golden(fed.Fleet(0).Store())
		}},
	} {
		for _, cacheBytes := range []int64{0, 1 << 20} {
			t.Run(fmt.Sprintf("%s/cache=%d", be.name, cacheBytes), func(t *testing.T) {
				co, err := serve.NewCoalescer(serve.Config{CacheBytes: cacheBytes}, be.be, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer co.Close(context.Background())
				held, err := be.gen(8, 1)
				if err != nil {
					t.Fatal(err)
				}
				others, err := be.gen(64, 2)
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				resp, err := co.Submit(ctx, serve.Request{Op: held.Op, Queries: held.Queries})
				if err != nil {
					t.Fatal(err)
				}
				reply := &serve.LookupResponse{Outputs: resp.Outputs}
				first, err := serve.NewReplyEncoder().Encode(reply)
				if err != nil {
					t.Fatal(err)
				}
				first = bytes.Clone(first)

				var wg sync.WaitGroup
				stop := make(chan struct{})
				changed := make(chan int, 1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					enc := serve.NewReplyEncoder()
					for n := 0; ; n++ {
						select {
						case <-stop:
							return
						default:
						}
						got, err := enc.Encode(reply)
						if err != nil || !bytes.Equal(got, first) {
							changed <- n
							return
						}
					}
				}()
				for q := 0; q < len(others.Queries); q += 8 {
					if _, err := co.Submit(ctx, serve.Request{Op: others.Op, Queries: others.Queries[q : q+8]}); err != nil {
						t.Fatal(err)
					}
				}
				close(stop)
				wg.Wait()
				select {
				case n := <-changed:
					t.Fatalf("rendering %d of the held reply differs from the first while later flushes ran", n)
				default:
				}
				want, err := be.golden(held)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range resp.Outputs {
					if !v.Equal(want[i]) {
						t.Fatalf("held output %d is no longer its golden fold after later flushes", i)
					}
				}
			})
		}
	}
}
