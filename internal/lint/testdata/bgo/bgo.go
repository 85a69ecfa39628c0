// Package bgo is a boundedgo fixture: the PR 6 Map fan-out bug — one
// goroutine per sweep index instead of one per worker — and the bounded
// idioms that stay legal.
package bgo

// perItem is the bug: goroutine count scales with the data.
func perItem(jobs []int) {
	for range jobs {
		go work() // want `goroutine started per iteration of an unbounded loop`
	}
}

// perIndex is the exact PR 6 shape: a counted loop over the input size.
func perIndex(n int) {
	for i := 0; i < n; i++ {
		go work() // want `goroutine started per iteration of an unbounded loop`
	}
}

// acquireInsideGoroutine still admits unbounded goroutines — each one
// exists (stack and all) before it blocks on the semaphore. This is
// how the PR 6 bug looked "bounded" in review.
func acquireInsideGoroutine(jobs []int, sem chan struct{}) {
	for range jobs {
		go func() { // want `goroutine started per iteration of an unbounded loop`
			sem <- struct{}{}
			defer func() { <-sem }()
			work()
		}()
	}
}

// workerPool is the PR 6 fix shape: the loop count is the concurrency
// bound, workers draw items from a shared source.
func workerPool(workers int, items chan int) {
	for w := 0; w < workers; w++ {
		go func() {
			for range items {
				work()
			}
		}()
	}
}

// cappedPool bounds through min(workers, n) — the Runner.Map idiom.
func cappedPool(workers, n int) {
	for i := 0; i < min(workers, n); i++ {
		go work()
	}
}

// rangeOverBound is the Go 1.22 spelling of the worker loop.
func rangeOverBound(numWorkers int) {
	for range numWorkers {
		go work()
	}
}

// constPool is bounded by a compile-time constant.
func constPool() {
	for i := 0; i < 4; i++ {
		go work()
	}
}

// semaphoreBeforeSpawn gates each spawn: at most cap(sem) goroutines
// exist at once, because the acquire happens before the go statement.
func semaphoreBeforeSpawn(jobs []int, sem chan struct{}) {
	for range jobs {
		sem <- struct{}{}
		go func() {
			defer func() { <-sem }()
			work()
		}()
	}
}

// tokenBeforeSpawn is the receive-shaped semaphore.
func tokenBeforeSpawn(jobs []int, tokens chan struct{}) {
	for range jobs {
		<-tokens
		go func() {
			defer func() { tokens <- struct{}{} }()
			work()
		}()
	}
}

// singleSpawn is not a fan-out.
func singleSpawn() {
	go work()
}

// suppressed: deliberate data-sized fan-out, reason on record (the
// stream.go producer-per-spec contract).
func suppressed(jobs []int) {
	for range jobs {
		//toolvet:ignore boundedgo one parked producer per job is the API contract; each blocks on its own buffered slot
		go work()
	}
}

func work() {}
