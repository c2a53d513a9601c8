package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Job states reported by GET /v1/jobs/{id}. There is no "queued"
// state: admission control (MaxJobs / MaxJobItems) bounds how much
// work is accepted, and an accepted job starts immediately — its items
// then queue naturally for pooled evaluators against interactive
// traffic.
const (
	JobRunning  = "running"
	JobDone     = "done"
	JobCanceled = "canceled"
)

// JobStatus is the body of a job poll (and of the submit response).
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Items / Completed / Failed are the progress counters: items in
	// the batch, plan lines already answered, and how many of those
	// carried an error body (a canceled job's drained items count as
	// failed with code "canceled").
	Items     int `json:"items"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
	// Bytes is the current NDJSON stream length: pass it as ?offset= to
	// GET /v1/jobs/{id}/stream to resume a tail exactly where a prior
	// read stopped.
	Bytes        int64 `json:"bytes"`
	CreatedUnix  int64 `json:"created_unix"`
	FinishedUnix int64 `json:"finished_unix,omitempty"`
}

// JobStats is the async-jobs section of GET /v1/stats.
type JobStats struct {
	Submitted int64 `json:"submitted"`
	Done      int64 `json:"done"`
	Canceled  int64 `json:"canceled"`
	// Refused counts submissions bounced by admission control (429).
	Refused int64 `json:"refused"`
	// Evicted counts finished jobs reaped by TTL.
	Evicted int64 `json:"evicted"`
	// Active and PendingItems are the current admission-control load:
	// unfinished jobs and their not-yet-answered items.
	Active       int   `json:"active"`
	PendingItems int64 `json:"pending_items"`
}

// job is one async batch: the request's result stream accumulating in
// memory, with progress counters and a broadcast channel for stream
// tails. The buffer holds exactly the bytes POST /v1/plan:batch would
// have streamed for the same request — the job API is a persistence
// layer over the batch engine, not a different computation.
type job struct {
	id      string
	items   int
	created time.Time
	cancel  context.CancelFunc

	mu        sync.Mutex
	buf       []byte
	notify    chan struct{} // closed and replaced on every append
	state     string
	completed int
	failed    int
	finished  time.Time
}

func (j *job) append(line []byte, isPlan, isErr bool) {
	j.mu.Lock()
	j.buf = append(j.buf, line...)
	if isPlan {
		j.completed++
		if isErr {
			j.failed++
		}
	}
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Items:       j.items,
		Completed:   j.completed,
		Failed:      j.failed,
		Bytes:       int64(len(j.buf)),
		CreatedUnix: j.created.Unix(),
	}
	if !j.finished.IsZero() {
		st.FinishedUnix = j.finished.Unix()
	}
	return st
}

// jobStore is the in-memory job table with admission control and lazy
// TTL eviction: every access reaps finished jobs older than ttl, so no
// background janitor goroutine is needed (and tests can drive the
// clock through now).
type jobStore struct {
	maxJobs  int
	maxItems int
	ttl      time.Duration
	now      func() time.Time

	pendingItems atomic.Int64

	mu        sync.Mutex
	m         map[string]*job
	seq       int64
	active    int
	submitted int64
	done      int64
	canceled  int64
	refused   int64
	evicted   int64
}

func newJobStore(maxJobs, maxItems int, ttl time.Duration) *jobStore {
	return &jobStore{
		maxJobs:  maxJobs,
		maxItems: maxItems,
		ttl:      ttl,
		now:      time.Now,
		m:        make(map[string]*job),
	}
}

// reapLocked evicts finished jobs past their TTL. Callers hold st.mu.
func (st *jobStore) reapLocked() {
	cutoff := st.now().Add(-st.ttl)
	for id, j := range st.m {
		j.mu.Lock()
		gone := !j.finished.IsZero() && j.finished.Before(cutoff)
		j.mu.Unlock()
		if gone {
			delete(st.m, id)
			st.evicted++
		}
	}
}

// admit registers a new job of n items or returns the saturation
// error. The retry hint is deliberately coarse — 1s; admission
// pressure on an in-memory store clears at solve speed, not at a
// schedule the server could predict.
func (st *jobStore) admit(n int, cancel context.CancelFunc) (*job, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.reapLocked()
	if st.active >= st.maxJobs {
		st.refused++
		return nil, saturated(1, "job store is saturated: %d unfinished jobs (limit %d)", st.active, st.maxJobs)
	}
	if pending := int(st.pendingItems.Load()); pending+n > st.maxItems {
		st.refused++
		return nil, saturated(1, "job store is saturated: %d pending items + %d submitted exceeds the limit %d",
			pending, n, st.maxItems)
	}
	st.seq++
	j := &job{
		id:      "job-" + strconv.FormatInt(st.seq, 10),
		items:   n,
		created: st.now(),
		cancel:  cancel,
		notify:  make(chan struct{}),
		state:   JobRunning,
	}
	st.m[j.id] = j
	st.active++
	st.submitted++
	st.pendingItems.Add(int64(n))
	return j, nil
}

// finish marks j done or canceled and releases its admission slot.
func (st *jobStore) finish(j *job, canceled bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j.mu.Lock()
	if canceled {
		j.state = JobCanceled
	} else {
		j.state = JobDone
	}
	j.finished = st.now()
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
	st.active--
	if canceled {
		st.canceled++
	} else {
		st.done++
	}
}

// activeCount reports the unfinished jobs (Drain polls it to zero).
func (st *jobStore) activeCount() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.active
}

// cancelAll cancels every job's context — finished jobs' cancels are
// no-ops. Running jobs drain their remaining items as "canceled" error
// lines and finish in state "canceled", exactly like a client DELETE.
func (st *jobStore) cancelAll() {
	st.mu.Lock()
	jobs := make([]*job, 0, len(st.m))
	for _, j := range st.m {
		jobs = append(jobs, j)
	}
	st.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
}

func (st *jobStore) get(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.reapLocked()
	j, ok := st.m[id]
	return j, ok
}

func (st *jobStore) list() []*job {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.reapLocked()
	out := make([]*job, 0, len(st.m))
	for _, j := range st.m {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool {
		return out[i].created.Before(out[k].created) || (out[i].created.Equal(out[k].created) && out[i].id < out[k].id)
	})
	return out
}

func (st *jobStore) stats() JobStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.reapLocked()
	return JobStats{
		Submitted:    st.submitted,
		Done:         st.done,
		Canceled:     st.canceled,
		Refused:      st.refused,
		Evicted:      st.evicted,
		Active:       st.active,
		PendingItems: st.pendingItems.Load(),
	}
}

// --- handlers ---------------------------------------------------------

// handleSubmitJob is POST /v1/jobs: the batch shape of /v1/plan:batch,
// executed asynchronously. The response is 202 with the job's initial
// status; poll GET /v1/jobs/{id}, tail GET /v1/jobs/{id}/stream, abort
// with DELETE /v1/jobs/{id}. Saturation (too many unfinished jobs or
// pending items) is 429/saturated with a Retry-After header.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	req, err := s.decodeBatch(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	// The job's context is its own: it outlives (and ignores) the
	// submit request's context — only DELETE cancels it. A job honours
	// an explicit timeout_ms (clamped to MaxTimeout) but not the
	// server's default interactive timeout: async jobs are the endpoint
	// for work too long to wait for.
	ctx, cancel := context.WithCancel(context.Background())
	if req.TimeoutMillis > 0 {
		inner := cancel
		tctx, tcancel := context.WithTimeout(ctx, s.cfg.requestTimeout(req.TimeoutMillis))
		ctx, cancel = tctx, func() { tcancel(); inner() }
	}
	j, err := s.jobs.admit(len(req.Items), cancel)
	if err != nil {
		cancel()
		writeError(w, err)
		return
	}
	go s.runJob(ctx, j, req)
	writeJSON(w, http.StatusAccepted, j.status())
}

// runJob drains the batch engine into the job's buffer. Each emitted
// line is encoded exactly as handleBatch encodes it, so a job's stream
// is byte-identical to the synchronous batch response for the same
// request.
func (s *Server) runJob(ctx context.Context, j *job, req *BatchRequest) {
	defer j.cancel() // release the context's resources once drained
	var lb bytes.Buffer
	s.runBatch(ctx, req, func(line BatchLine) {
		lb.Reset()
		json.NewEncoder(&lb).Encode(line) //nolint:errcheck // bytes.Buffer cannot fail
		isPlan := line.Kind == "plan"
		// append copies lb's bytes into the job buffer synchronously, so
		// resetting lb for the next line is safe.
		j.append(lb.Bytes(), isPlan, isPlan && line.Error != nil)
		if isPlan {
			s.jobs.pendingItems.Add(-1)
		}
	})
	s.jobs.finish(j, ctx.Err() != nil)
}

func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) *job {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		writeError(w, notFound("unknown job id %q (finished jobs are evicted after %s)", r.PathValue("id"), s.cfg.jobTTL()))
		return nil
	}
	return j
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	if j := s.jobByID(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.list()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCancelJob is DELETE /v1/jobs/{id}: cancel the job's context.
// Items not yet computed drain as "canceled" error lines; the job
// lands in state "canceled" once the drain completes. Canceling a
// finished job is a no-op that reports its final status.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.status())
}

// handleStreamJob is GET /v1/jobs/{id}/stream?offset=N: the job's
// NDJSON stream from byte offset N (default 0), following live until
// the job finishes. The bytes served from offset N are exactly
// stream[N:] — a client that reconnects with the Bytes value of its
// last poll resumes with nothing lost and nothing repeated.
func (s *Server) handleStreamJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	offset := int64(0)
	if q := r.URL.Query().Get("offset"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil || v < 0 {
			writeError(w, badRequest("bad offset %q", q))
			return
		}
		offset = v
	}
	j.mu.Lock()
	tooFar := offset > int64(len(j.buf)) && j.state != JobRunning
	j.mu.Unlock()
	if tooFar {
		writeError(w, badRequest("offset %d is beyond the %d-byte stream", offset, j.status().Bytes))
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	for {
		j.mu.Lock()
		if offset < int64(len(j.buf)) {
			chunk := j.buf[offset:]
			j.mu.Unlock()
			if _, err := w.Write(chunk); err != nil {
				return // client gone
			}
			if flusher != nil {
				flusher.Flush()
			}
			offset += int64(len(chunk))
			continue
		}
		if j.state != JobRunning {
			j.mu.Unlock()
			return
		}
		ch := j.notify
		j.mu.Unlock()
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}
