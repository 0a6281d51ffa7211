// Package fixture is a minimal positive/negative corpus for the
// blocking-in-task checker. The local Ctx mirrors the runtime's spawn
// surface so the fixture type-checks without importing internal/core.
package fixture

import (
	"sync"
	"time"
)

// Ctx stands in for core.Ctx.
type Ctx struct{}

// Async mirrors core.Ctx.Async.
func (c *Ctx) Async(fn func(*Ctx)) {}

// Finish mirrors core.Ctx.Finish.
func (c *Ctx) Finish(fn func(*Ctx)) {}

// Wait mirrors core.Ctx.Wait; any stands in for *core.Future.
func (c *Ctx) Wait(f any) {}

var globalMu sync.Mutex

func bad(c *Ctx, ch chan int, wg *sync.WaitGroup) {
	c.Async(func(c *Ctx) {
		time.Sleep(time.Millisecond) // want blocking-in-task (time.Sleep)
	})
	c.Finish(func(c *Ctx) {
		<-ch            // want blocking-in-task (receive)
		ch <- 1         // want blocking-in-task (send)
		wg.Wait()       // want blocking-in-task (WaitGroup.Wait)
		globalMu.Lock() // want blocking-in-task (package-level mutex)
		globalMu.Unlock()
		select { // want blocking-in-task (select without default)
		case v := <-ch:
			_ = v
		}
	})
}
