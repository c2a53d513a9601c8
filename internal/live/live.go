// Package live owns the replan loops behind mcastd's platform
// subscriptions: it turns platform mutation events into a stream of
// versioned plan updates fanned out to any number of subscribers.
//
// The package is deliberately unopinionated about *what* a plan is —
// the compute closure injected by the serving layer returns the
// current platform version plus that version's canonical plan bytes
// (internal/serve routes it through the same cache/coalescer/pool
// path as an interactive request, which is what makes every streamed
// plan bit-identical to a cold solve of the same snapshot). live only
// owns the concurrency semantics:
//
//   - Coalescing: Notify marks "a new version may exist" and is safe
//     to call from any goroutine at any rate; the loop computes at
//     most one update at a time and always against the *latest*
//     version, so a burst of PATCHes costs one recompute, not one per
//     event. Intermediate versions are skipped by design — the stream
//     contract is "you always converge to the newest plan", not "you
//     see every version".
//   - Latest-wins backpressure: each subscriber owns a one-slot
//     mailbox. A slow reader never blocks the loop or other
//     subscribers; when it falls behind, stale updates are replaced in
//     the mailbox and it simply resumes at the newest version.
//   - Replay: late subscribers immediately receive the most recent
//     update (if any) so a stream always starts with the current plan
//     without waiting for the next mutation.
package live

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
)

// An Update is one versioned replan outcome delivered to subscribers.
type Update struct {
	// Version is the platform version this update describes.
	Version int64
	// Data is the version's canonical plan encoding (nil when Err is
	// set).
	Data json.RawMessage
	// Err reports a compute failure for this version — e.g. a mutation
	// dropped the subscribed spec's source. The loop keeps running; a
	// later version may compute again.
	Err error
}

// ErrClosed is returned by Sub.Next when the loop shut down.
var ErrClosed = errors.New("live: loop closed")

// Compute produces the current version and its plan bytes. It is
// called from the loop goroutine only, never concurrently with
// itself. The error return is delivered to subscribers as an erroring
// Update for that version, not treated as fatal.
type Compute func() (version int64, data json.RawMessage, err error)

// Loop is one replan loop: a single goroutine that recomputes on
// Notify and broadcasts to the current subscribers.
type Loop struct {
	compute Compute

	// notify is the coalescing wakeup: capacity 1, so any number of
	// pending Notify calls collapse into one recompute of the latest
	// state.
	notify chan struct{}
	done   chan struct{}
	wg     sync.WaitGroup

	mu   sync.Mutex
	subs map[*Sub]struct{}
	last *Update // most recent update, replayed to late subscribers
}

// NewLoop starts a replan loop around compute. The loop is idle until
// the first Notify (or the first Subscribe, which self-notifies so a
// fresh stream gets the current plan).
func NewLoop(compute Compute) *Loop {
	l := &Loop{
		compute: compute,
		notify:  make(chan struct{}, 1),
		done:    make(chan struct{}),
		subs:    make(map[*Sub]struct{}),
	}
	l.wg.Add(1)
	go l.run()
	return l
}

// Notify tells the loop the platform may have a new version. It never
// blocks; concurrent notifications coalesce.
func (l *Loop) Notify() {
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// Close stops the loop goroutine and fails all subscribers' Next
// calls with ErrClosed. Idempotent.
func (l *Loop) Close() {
	l.mu.Lock()
	select {
	case <-l.done:
		l.mu.Unlock()
		return
	default:
	}
	close(l.done)
	l.mu.Unlock()
	l.wg.Wait()
}

func (l *Loop) run() {
	defer l.wg.Done()
	for {
		select {
		case <-l.done:
			return
		case <-l.notify:
		}
		version, data, err := l.compute()
		u := Update{Version: version, Data: data, Err: err}

		l.mu.Lock()
		if prev := l.last; prev != nil && prev.Version == u.Version &&
			(prev.Err == nil) == (u.Err == nil) {
			// Coalesced notifications for a version already published;
			// nothing new to say.
			l.mu.Unlock()
			continue
		}
		l.last = &u
		for s := range l.subs {
			s.deliver(u)
		}
		l.mu.Unlock()
	}
}

// Subscribe attaches a new subscriber. If the loop has published an
// update it is replayed immediately; otherwise the loop is notified so
// the first update arrives without waiting for a mutation. Callers
// must Cancel the subscription when done.
func (l *Loop) Subscribe() *Sub {
	s := &Sub{l: l, box: make(chan Update, 1)}
	l.mu.Lock()
	l.subs[s] = struct{}{}
	replay := l.last
	if replay != nil {
		s.deliver(*replay)
	}
	l.mu.Unlock()
	if replay == nil {
		l.Notify()
	}
	return s
}

// Subscribers returns the current subscriber count.
func (l *Loop) Subscribers() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.subs)
}

// Sub is one subscription: a one-slot latest-wins mailbox.
type Sub struct {
	l   *Loop
	box chan Update
}

// deliver replaces the mailbox content with u if the subscriber has
// not consumed the previous update yet. Called with l.mu held, which
// serialises all senders — that is what makes the drain-and-replace
// below race-free.
func (s *Sub) deliver(u Update) {
	for {
		select {
		case s.box <- u:
			return
		default:
		}
		select {
		case <-s.box: // discard the stale update the reader never saw
		default:
		}
	}
}

// Next blocks until the next update, the context ends, or the loop
// closes (ErrClosed). Updates are strictly newer-version than the
// previous one returned, except that a version can repeat when its
// compute outcome flipped between error and success.
func (s *Sub) Next(ctx context.Context) (Update, error) {
	select {
	case u := <-s.box:
		return u, nil
	default:
	}
	select {
	case u := <-s.box:
		return u, nil
	case <-ctx.Done():
		return Update{}, ctx.Err()
	case <-s.l.done:
		// Drain a final update raced with Close.
		select {
		case u := <-s.box:
			return u, nil
		default:
			return Update{}, ErrClosed
		}
	}
}

// Cancel detaches the subscription. Safe to call multiple times and
// concurrently with Next (a concurrent Next may still return one
// already-delivered update).
func (s *Sub) Cancel() {
	s.l.mu.Lock()
	delete(s.l.subs, s)
	s.l.mu.Unlock()
}
