package fixture

import (
	"sync"
	"time"
)

func good(c *Ctx, ch chan int, mu *sync.Mutex, f any) {
	c.Async(func(c *Ctx) {
		c.Wait(f) // suspends the task, not the worker
		go func() {
			time.Sleep(time.Millisecond) // own goroutine: may block
			ch <- 1
		}()
		select { // has default: non-blocking
		case v := <-ch:
			_ = v
		default:
		}
		var local sync.Mutex
		local.Lock() // local mutex: bounded, allowed
		local.Unlock()
		mu.Lock() // parameter, not package-level: allowed
		mu.Unlock()
	})
	// Outside any task body, blocking is the caller's business.
	time.Sleep(time.Nanosecond)
	<-ch
}
