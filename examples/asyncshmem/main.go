// AsyncSHMEM: the paper's novel shmem_async_when API. Where OpenSHMEM's
// wait APIs block a thread until a remote put changes local memory, HiPER
// predicates a TASK on the condition and hands the waiting to the
// runtime (the put's delivery releases the task; nothing polls):
//
//	shmem_async_when(mem_addr, wait_for_val, [=] { body; });
//
// This example runs a token ring over simulated PEs: each PE arms an
// AsyncWhen handler for the token landing in its symmetric slot,
// increments it, and passes it on — no PE ever blocks a worker waiting.
//
//	go run ./examples/asyncshmem
package main

import (
	"fmt"
	"sync"
	"time"

	"repro/hiper"
	"repro/internal/core"
	"repro/internal/hipershmem"
	"repro/internal/shmem"
	"repro/internal/simnet"
)

const (
	pes  = 4
	laps = 3
)

func main() {
	world := shmem.NewWorld(pes, simnet.CostModel{Alpha: 50 * time.Microsecond})
	slot := world.AllocInt64(1) // each PE's token mailbox

	var wg sync.WaitGroup
	for r := 0; r < pes; r++ {
		rt, err := hiper.New(hiper.WithWorkers(2))
		if err != nil {
			panic(err)
		}
		m := hipershmem.New(world.PE(r), nil)
		hiper.MustInstall(rt, m)

		wg.Add(1)
		go func(r int, rt *hiper.Runtime, m *hipershmem.Module) {
			defer wg.Done()
			defer rt.Close()
			rt.Launch(func(c *hiper.Ctx) {
				finalVal := int64(laps*pes + 1)
				done := core.NewPromise(rt)

				// Re-arming handler: fires each time the token value in OUR
				// slot grows past what we last saw.
				var arm func(cc *hiper.Ctx, seen int64)
				arm = func(cc *hiper.Ctx, seen int64) {
					m.AsyncWhen(cc, slot, 0, shmem.CmpGT, seen, func(hc *hiper.Ctx) {
						v := slot.Peek(r, 0)
						if v >= finalVal {
							hc.Put(done, v)
							return
						}
						fmt.Printf("PE %d holds token %d\n", r, v)
						if v == finalVal-1 {
							// Last hop: tell every PE the ring is done.
							for p := 0; p < pes; p++ {
								m.PutValue(hc, slot, p, 0, finalVal)
							}
							hc.Put(done, finalVal)
							return
						}
						next := (r + 1) % pes
						m.PutValue(hc, slot, next, 0, v+1)
						arm(hc, v)
					})
				}
				arm(c, 0)

				if r == 0 {
					// Kick off the ring.
					m.PutValue(c, slot, 0, 0, 1)
				}
				v := c.Get(done.Future())
				if r == 0 {
					fmt.Printf("ring complete after %d hops (final token %v)\n",
						laps*pes, v)
				}
			})
		}(r, rt, m)
	}
	wg.Wait()
}
