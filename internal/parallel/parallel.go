// Package parallel provides the process-wide CPU token budget shared
// by every fan-out point in the pipeline — engine activation workers,
// grid.Generate slab pools, the per-pair conformational-search pools
// of the Vina and AD4 engines and the points of a performance sweep —
// and For, the one bounded index loop all but the engine's run on.
//
// The problem it solves is nested parallelism: the engine fans
// activations across GOMAXPROCS goroutines, and each activation may
// itself want to fan out its search chains or grid slabs. Without a
// shared budget the levels multiply (engine P × search E goroutines)
// and the process oversubscribes the machine, which slows everything
// down and wrecks the tail latency the paper's schedulers reason
// about. With the budget, inner fan-outs degrade gracefully: when the
// outer level already holds every token, Grab grants no extras and
// the inner loop simply runs sequentially on its own goroutine.
//
// The accounting convention is that every running goroutine already
// owns one implicit token — its right to execute — so a fan-out to n
// workers needs only n-1 extra tokens. The global pool therefore has
// capacity GOMAXPROCS-1: with every token granted, exactly GOMAXPROCS
// goroutines are doing CPU work. Acquisition never blocks (a blocking
// nested acquire could deadlock against the level that holds the
// tokens); callers take what is available and proceed.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
)

// Pool is a weighted CPU-token pool. The zero value is unusable; use
// NewPool or the process-global Tokens.
type Pool struct {
	mu       sync.Mutex
	cap      int
	out      int
	accounts int // open Accounts (fair-share divisor)
}

// NewPool builds a pool with the given capacity (extra workers beyond
// the callers themselves). Negative capacities clamp to zero.
func NewPool(capacity int) *Pool {
	if capacity < 0 {
		capacity = 0
	}
	return &Pool{cap: capacity}
}

// global is the process-wide budget, sized once at startup so that a
// fully granted pool plus the root goroutine equals GOMAXPROCS.
var global = NewPool(runtime.GOMAXPROCS(0) - 1)

// Tokens returns the process-global pool consumed by the engine, the
// grid slab workers and the search pools.
func Tokens() *Pool { return global }

// Cap returns the pool's total token capacity.
func (p *Pool) Cap() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cap
}

// InUse returns the number of tokens currently granted.
func (p *Pool) InUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out
}

// TryAcquire grants up to want tokens without blocking and returns
// how many were granted (possibly zero). Negative requests grant
// zero.
func (p *Pool) TryAcquire(want int) int {
	if want <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	free := p.cap - p.out
	if want > free {
		want = free
	}
	p.out += want
	return want
}

// Release returns n tokens to the pool. Releasing more than is
// outstanding is a caller accounting bug and panics.
func (p *Pool) Release(n int) {
	if n <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > p.out {
		panic(fmt.Sprintf("parallel: release of %d tokens with %d outstanding", n, p.out))
	}
	p.out -= n
}

// Grab sizes a fan-out that would like want workers in total: the
// caller's own goroutine plus as many extra tokens as the pool can
// spare, never exceeding want. It returns the worker count to use
// (always ≥ 1, so exhaustion degrades to sequential execution rather
// than blocking) and a release function that must be called exactly
// once when the fan-out completes; release is idempotent so it is
// safe to defer.
func (p *Pool) Grab(want int) (workers int, release func()) {
	if want <= 1 {
		return 1, func() {}
	}
	extra := p.TryAcquire(want - 1)
	var once sync.Once
	return 1 + extra, func() {
		once.Do(func() { p.Release(extra) })
	}
}

// Occupancy reports the pool's capacity, the tokens currently granted
// and the number of open accounts — the numbers a campaign service
// surfaces in its status endpoint.
func (p *Pool) Occupancy() (capacity, inUse, accounts int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cap, p.out, p.accounts
}

// fairShareLocked is the per-account holding cap: with A open
// accounts and capacity C, each account may hold at most ceil(C/A)
// tokens, so no single campaign's fan-outs can monopolize the budget
// while others are active. Callers hold p.mu.
func (p *Pool) fairShareLocked() int {
	if p.accounts <= 1 {
		return p.cap
	}
	return (p.cap + p.accounts - 1) / p.accounts
}

// Account is one campaign's view of a shared Pool. Every token an
// account grabs is charged against both the pool and the account, and
// the account's outstanding tokens are capped at the pool's fair
// share (capacity / open accounts, rounded up). N concurrent
// campaigns therefore degrade fairly: a second campaign arriving
// mid-flight is guaranteed its share of future grants instead of
// finding the budget drained by whichever campaign fanned out first.
// Accounts never block and never grant below the caller's own
// goroutine, so exhaustion still degrades to sequential execution.
type Account struct {
	pool *Pool

	mu     sync.Mutex
	held   int
	closed bool
}

// NewAccount opens a per-campaign account on the pool. Close it when
// the campaign ends so the fair share of the remaining campaigns
// grows back.
func (p *Pool) NewAccount() *Account {
	p.mu.Lock()
	p.accounts++
	p.mu.Unlock()
	return &Account{pool: p}
}

// TryAcquire grants up to want tokens without blocking, limited by
// both the pool's free tokens and the account's fair share, and
// returns how many were granted (possibly zero).
func (a *Account) TryAcquire(want int) int {
	if want <= 0 {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return 0
	}
	p := a.pool
	p.mu.Lock()
	if shareLeft := p.fairShareLocked() - a.held; want > shareLeft {
		want = shareLeft
	}
	if free := p.cap - p.out; want > free {
		want = free
	}
	if want < 0 {
		want = 0
	}
	p.out += want
	p.mu.Unlock()
	a.held += want
	return want
}

// Release returns n of the account's tokens to the pool. Releasing
// more than the account holds is a caller accounting bug and panics.
func (a *Account) Release(n int) {
	if n <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n > a.held {
		panic(fmt.Sprintf("parallel: account release of %d tokens with %d held", n, a.held))
	}
	a.held -= n
	a.pool.Release(n)
}

// Grab mirrors Pool.Grab through the account: worker count to use
// (always ≥ 1) plus an idempotent release function.
func (a *Account) Grab(want int) (workers int, release func()) {
	if want <= 1 {
		return 1, func() {}
	}
	extra := a.TryAcquire(want - 1)
	var once sync.Once
	return 1 + extra, func() {
		once.Do(func() { a.Release(extra) })
	}
}

// Held returns the account's outstanding tokens.
func (a *Account) Held() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.held
}

// Close unregisters the account. Any tokens still held are returned
// to the pool (a campaign's fan-outs release through their own
// release funcs before the campaign ends, so a nonzero remainder is
// defensive). Close is idempotent; a closed account grants nothing.
func (a *Account) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return
	}
	a.closed = true
	if a.held > 0 {
		a.pool.Release(a.held)
		a.held = 0
	}
	p := a.pool
	p.mu.Lock()
	p.accounts--
	p.mu.Unlock()
}
