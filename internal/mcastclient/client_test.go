package mcastclient

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
)

const diamondText = `
node S
edge S r1 1
edge S r2 1
edge r1 t1 1
edge r1 t2 1
edge r2 t1 1
edge r2 t2 1
edge S t1 6
edge S t2 6
`

func newClient(t *testing.T) *Client {
	t.Helper()
	ts := httptest.NewServer(serve.New(serve.Config{Shards: 2}))
	t.Cleanup(ts.Close)
	return New(ts.URL, nil)
}

// TestClientRoundTrip drives the typed client through the full v1
// surface: upload, plan, batch stream, job lifecycle, stats.
func TestClientRoundTrip(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()

	up, err := c.UploadPlatform(ctx, &serve.UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	if err != nil {
		t.Fatal(err)
	}
	if up.ID != "d" || up.Nodes != 5 {
		t.Fatalf("upload %+v", up)
	}

	plan, err := c.Plan(ctx, &serve.PlanRequest{PlanSpec: serve.PlanSpec{PlatformID: "d", Targets: []string{"t1"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Bounds) == 0 {
		t.Fatalf("plan %+v", plan)
	}

	raw, hdr, err := c.PlanRaw(ctx, &serve.PlanRequest{PlanSpec: serve.PlanSpec{PlatformID: "d", Targets: []string{"t1"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || hdr.Get(serve.HeaderCache) != "hit" {
		t.Errorf("raw plan: %d bytes, cache header %q (want hit)", len(raw), hdr.Get(serve.HeaderCache))
	}

	batch := &serve.BatchRequest{
		PlanSpec: serve.PlanSpec{PlatformID: "d", Heuristics: []string{}},
		Items: []serve.BatchItem{
			{PlanSpec: serve.PlanSpec{Targets: []string{"t1"}}},
			{PlanSpec: serve.PlanSpec{Targets: []string{"t2"}}},
		},
	}
	var kinds []string
	if err := c.PlanBatch(ctx, batch, func(line serve.BatchLine) error {
		kinds = append(kinds, line.Kind)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 3 || kinds[2] != "summary" {
		t.Fatalf("batch line kinds %v", kinds)
	}

	job, err := c.SubmitJob(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for job.State == serve.JobRunning {
		time.Sleep(time.Millisecond)
		if job, err = c.Job(ctx, job.ID); err != nil {
			t.Fatal(err)
		}
	}
	if job.State != serve.JobDone || job.Completed != 2 {
		t.Fatalf("job %+v", job)
	}
	var full bytes.Buffer
	if n, err := c.StreamJob(ctx, job.ID, 0, &full); err != nil || n != job.Bytes {
		t.Fatalf("stream: %d bytes, err %v (want %d)", n, err, job.Bytes)
	}
	var tail bytes.Buffer
	if _, err := c.StreamJob(ctx, job.ID, job.Bytes/2, &tail); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail.Bytes(), full.Bytes()[job.Bytes/2:]) {
		t.Error("resumed stream differs from stream[offset:]")
	}

	jobs, err := c.Jobs(ctx)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("jobs %v err %v", jobs, err)
	}
	st, err := c.Stats(ctx)
	if err != nil || st.Jobs.Done != 1 || st.Batch.Requests != 2 {
		t.Fatalf("stats %+v err %v", st, err)
	}
}

// TestClientTypedErrors: server failures decode into *APIError with
// the envelope's code, status and Retry-After hint.
func TestClientTypedErrors(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()

	_, err := c.Plan(ctx, &serve.PlanRequest{PlanSpec: serve.PlanSpec{PlatformID: "missing", Targets: []string{"x"}}})
	ae, ok := err.(*APIError)
	if !ok {
		t.Fatalf("err %T %v, want *APIError", err, err)
	}
	if ae.Status != 404 || ae.Code != serve.CodeNotFound || ae.Message == "" {
		t.Errorf("APIError %+v", ae)
	}
	if !IsCode(err, serve.CodeNotFound) || IsCode(err, serve.CodeSaturated) {
		t.Error("IsCode misclassified the error")
	}

	if _, err := c.Job(ctx, "job-404"); !IsCode(err, serve.CodeNotFound) {
		t.Errorf("job poll err %v, want not_found", err)
	}
}

// TestClientPatchSubscribe drives the live-platform surface: PATCH
// delta batches, the mutation log, and the subscribe iterator —
// including a mid-stream disconnect and an After-cursor resume that
// must not replay the already-seen version.
func TestClientPatchSubscribe(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()

	up, err := c.UploadPlatform(ctx, &serve.UploadRequest{ID: "d", Platform: diamondText, Source: "S"})
	if err != nil {
		t.Fatal(err)
	}
	if up.Version != 1 {
		t.Fatalf("upload version = %d, want 1", up.Version)
	}

	sub, err := c.Subscribe(ctx, "d", SubscribeSpec{Targets: []string{"t1", "t2"}, Heuristics: []string{"MCPH"}})
	if err != nil {
		t.Fatal(err)
	}
	line, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if line.Version != 1 || line.Plan == nil || line.Error != nil {
		t.Fatalf("first line %+v", line)
	}
	var v1 serve.PlanResponse
	if err := json.Unmarshal(line.Plan, &v1); err != nil {
		t.Fatal(err)
	}

	// Degrade both relay links: the subscriber must observe version 2
	// with a different fingerprint (and, on this platform, a different
	// plan).
	pr, err := c.PatchPlatform(ctx, "d", &serve.PatchRequest{Ops: []serve.PatchOp{
		{Op: "scale_edge_cost", From: "S", To: "r1", Factor: 8},
		{Op: "scale_edge_cost", From: "S", To: "r2", Factor: 8},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Version != 2 || pr.Applied != 2 {
		t.Fatalf("patch response %+v", pr)
	}
	line, err = sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if line.Version != 2 || line.Plan == nil {
		t.Fatalf("post-patch line %+v", line)
	}
	var v2 serve.PlanResponse
	if err := json.Unmarshal(line.Plan, &v2); err != nil {
		t.Fatal(err)
	}
	if v2.Fingerprint == v1.Fingerprint {
		t.Fatal("patch did not change the streamed fingerprint")
	}

	// A bad batch is atomic: nothing applies, the version holds.
	if _, err := c.PatchPlatform(ctx, "d", &serve.PatchRequest{Ops: []serve.PatchOp{
		{Op: "scale_edge_cost", From: "S", To: "r1", Factor: 2},
		{Op: "disable_edge", From: "S", To: "nope"},
	}}); !IsCode(err, serve.CodeBadRequest) {
		t.Fatalf("bad batch err %v, want bad_request", err)
	}
	if info, err := c.PlatformLog(ctx, "d"); err != nil || len(info) != 2 {
		t.Fatalf("log %v err %v (want upload + one patch)", info, err)
	}

	// Mid-stream disconnect: close the subscription, mutate while
	// nobody is watching, then resume past the last seen version. The
	// resumed stream must start at version 3, the first version past
	// the cursor.
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Next(); err == nil {
		t.Fatal("Next after Close did not fail")
	}
	if _, err := c.PatchPlatform(ctx, "d", &serve.PatchRequest{Ops: []serve.PatchOp{
		{Op: "scale_edge_cost", From: "S", To: "r1", Factor: 0.125},
		{Op: "scale_edge_cost", From: "S", To: "r2", Factor: 0.125},
	}}); err != nil {
		t.Fatal(err)
	}
	sub2, err := c.Subscribe(ctx, "d", SubscribeSpec{Targets: []string{"t1", "t2"}, Heuristics: []string{"MCPH"}, After: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	line, err = sub2.Next()
	if err != nil {
		t.Fatal(err)
	}
	if line.Version != 3 {
		t.Fatalf("resumed stream starts at version %d, want 3", line.Version)
	}
	// x8 then x1/8 is exact: version 3's content equals version 1's.
	var v3 serve.PlanResponse
	if err := json.Unmarshal(line.Plan, &v3); err != nil {
		t.Fatal(err)
	}
	if v3.Fingerprint != v1.Fingerprint {
		t.Fatal("exact inverse scaling did not restore the fingerprint")
	}

	// Canceling the subscribe context unblocks a concurrent Next.
	subCtx, cancel := context.WithCancel(ctx)
	sub3, err := c.Subscribe(subCtx, "d", SubscribeSpec{Targets: []string{"t1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer sub3.Close()
	if _, err := sub3.Next(); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := sub3.Next()
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Next survived context cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not unblock on context cancellation")
	}
}
