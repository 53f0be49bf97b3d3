package jobs

import (
	"fmt"
	"sync"
)

// budget is the server's global resource ledger. It tracks two resources
// in one FIFO admission queue:
//
//   - Memory. Every job's working memory M (in records, as derived by
//     srmsort.Config.MergeOrder) is carved from one shared total before
//     the job's sort may start, and returned when it finishes —
//     admission control in the Rahn–Sanders sense: memory is a globally
//     budgeted resource, and the number of concurrently running sorts is
//     whatever the budget admits, not a fixed worker count.
//   - Cores. Each job reserves one core per merge it runs at once
//     (Spec.Workers), and the server bounds the sum so co-tenant sorts
//     cannot oversubscribe the CPU the way they cannot oversubscribe
//     memory.
//
// Both resources of one reservation are granted atomically: a job holds
// either its full {memory, cores} pair or nothing, so two queued jobs
// can never deadlock holding one resource each. Admission is strictly
// FIFO: the queue head is admitted as soon as BOTH its needs fit, and
// nothing behind it can jump the line, so a large job is never starved
// by a stream of small ones. The invariant used <= total holds for each
// ledger at every instant by construction; take panics if it is ever
// violated, so a scheduler bug cannot silently oversubscribe.
type budget struct {
	mu    sync.Mutex
	mem   ledger
	cores ledger
	queue []*waiter
	// closed, once non-nil, fails every queued and future reservation
	// with this reason — the server is shutting down.
	closed error
}

// ledger is one resource's {total, used, peak} accounting.
type ledger struct {
	total, used, peak int
}

func (l *ledger) fits(n int) bool { return l.used+n <= l.total }

func (l *ledger) take(n int) {
	l.used += n
	if l.used > l.peak {
		l.peak = l.used
	}
	if l.used > l.total {
		panic("jobs: admission control exceeded the budget")
	}
}

func (l *ledger) put(n int) {
	l.used -= n
	if l.used < 0 {
		panic("jobs: budget released more than was reserved")
	}
}

// waiter is one queued reservation. ch is buffered so drainLocked never
// blocks handing out an admission.
type waiter struct {
	m    int // records of memory
	c    int // cores
	ch   chan error
	gone bool // abandoned by cancellation; drainLocked skips it
}

func newBudget(memTotal, coreTotal int) *budget {
	return &budget{mem: ledger{total: memTotal}, cores: ledger{total: coreTotal}}
}

// reserve blocks until m records of memory AND c cores are carved from
// the budget together, cancel fires, or the budget closes. On success
// the caller owns the combined reservation and must release it.
func (b *budget) reserve(m, c int, cancel <-chan struct{}) error {
	b.mu.Lock()
	if m <= 0 {
		b.mu.Unlock()
		return fmt.Errorf("jobs: reservation of %d records", m)
	}
	if c <= 0 {
		b.mu.Unlock()
		return fmt.Errorf("jobs: reservation of %d cores", c)
	}
	if m > b.mem.total {
		b.mu.Unlock()
		return fmt.Errorf("%w: job needs M=%d records, server budget is %d", ErrOverBudget, m, b.mem.total)
	}
	if c > b.cores.total {
		b.mu.Unlock()
		return fmt.Errorf("%w: job needs %d cores, server budget is %d", ErrOverBudget, c, b.cores.total)
	}
	if b.closed != nil {
		err := b.closed
		b.mu.Unlock()
		return err
	}
	w := &waiter{m: m, c: c, ch: make(chan error, 1)}
	b.queue = append(b.queue, w)
	b.drainLocked()
	b.mu.Unlock()

	select {
	case err := <-w.ch:
		return err
	case <-cancel:
		b.mu.Lock()
		select {
		case err := <-w.ch:
			// Lost the race: the reservation was granted (or refused)
			// just as the cancel fired. Hand a granted one straight back.
			if err == nil {
				b.mem.put(w.m)
				b.cores.put(w.c)
				b.drainLocked()
			}
		default:
			w.gone = true
		}
		b.mu.Unlock()
		return ErrCanceled
	}
}

// release returns a granted reservation and admits whatever now fits.
func (b *budget) release(m, c int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mem.put(m)
	b.cores.put(c)
	b.drainLocked()
}

// drainLocked admits queued reservations in FIFO order while both their
// needs fit.
func (b *budget) drainLocked() {
	for len(b.queue) > 0 {
		w := b.queue[0]
		if w.gone {
			b.queue = b.queue[1:]
			continue
		}
		if b.closed != nil {
			w.ch <- b.closed
			b.queue = b.queue[1:]
			continue
		}
		if !b.mem.fits(w.m) || !b.cores.fits(w.c) {
			return // FIFO: nothing overtakes the head
		}
		b.mem.take(w.m)
		b.cores.take(w.c)
		w.ch <- nil
		b.queue = b.queue[1:]
	}
}

// close fails every queued and future reservation with reason.
func (b *budget) close(reason error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed == nil {
		b.closed = reason
	}
	b.drainLocked()
}

// InUse returns the records currently reserved.
func (b *budget) InUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.mem.used
}

// Peak returns the high-water mark of reserved records.
func (b *budget) Peak() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.mem.peak
}

// Total returns the memory budget size.
func (b *budget) Total() int { return b.mem.total }

// CoresInUse returns the cores currently reserved.
func (b *budget) CoresInUse() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cores.used
}

// CoresPeak returns the high-water mark of reserved cores.
func (b *budget) CoresPeak() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cores.peak
}

// CoresTotal returns the core budget size.
func (b *budget) CoresTotal() int { return b.cores.total }

// queueLen returns the number of queued (unadmitted) reservations.
func (b *budget) queueLen() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}
