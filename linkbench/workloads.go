package main

import (
	"fmt"
	"net/http"
	"sync"
	"time"
)

// linkServeRate keeps the two cores well under busy (30 to 55 ms of
// CPU per linked item). Over the benchmark's 30-second window it sends
// 180 requests: the quality set, and between 100 and 200, so
// link_serve's tail is its p90. A longer window at a lower rate than
// 9/s over 20 s gives fewer overlapping requests and averages over
// more of the shared machine's bursts of stolen CPU. The stream has
// linkWorkers client workers.
const (
	linkServeRate = 6.0
	linkWorkers   = 2
	// calibrateEvery is how many link requests run between two
	// calibration blocks: about five seconds of link_serve's stream.
	calibrateEvery = 30
)

// reply is one completed request of the open-loop stream.
type reply struct {
	ok         bool
	resp       []byte
	took       timing // in ms; wall from the scheduled send to completion
	start, end time.Time
}

// openLoop sends link request i at due[i] from its start, whether or
// not earlier ones have finished, and waits for every reply. first is
// the first request's index in the whole stream.
// A request that finds every client worker busy waits in the generator,
// and that wait counts in its latency. Sends that leave late against
// the schedule are recorded as generator lateness.
func (b *bench) openLoop(h http.Handler, bodies [][]byte, due []time.Duration, first int) []reply {
	replies := make([]reply, len(bodies))
	sent := make([]time.Duration, len(due))
	ch := make(chan int, len(bodies)) // sized to the number of sends
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < linkWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				w := b.startWatch()
				resp, ok := b.do(h, "/v1/link", bodies[i])
				t := w.stop().inMs()
				end := time.Now()
				t.wall = ms(end.Sub(start.Add(due[i])))
				replies[i] = reply{ok: ok, resp: resp, took: t, start: w.t0, end: end}
			}
		}()
	}
	for i, d := range due {
		if w := time.Until(start.Add(d)); w > 0 {
			time.Sleep(w)
		}
		sent[i] = time.Since(start)
		ch <- i
	}
	close(ch)
	wg.Wait()
	for _, l := range lateness(due, sent) {
		b.lateMs.add(windowPhase, l)
	}
	if b.traced {
		for i, r := range replies {
			b.spans = append(b.spans, span{
				Name: "loadgen.link", Start: r.start.UnixNano(), End: r.end.UnixNano(),
				Parent: -1, Req: fmt.Sprintf("link/%d", first+i),
			})
		}
	}
	return replies
}

// window runs the workload's timed window on s and returns the stack
// left serving afterwards (ingest_durable restarts it).
func (b *bench) window(s *stack) (*stack, error) {
	switch b.name {
	case "link_serve":
		b.linkServe(s)
		return s, nil
	case "ingest_durable":
		return b.ingestDurable(s)
	}
	return nil, fmt.Errorf("unknown workload %q", b.name)
}

// linkServe: a read-only Poisson /v1/link stream over the held-out
// items in order, each asked once. Its first answers are the quality
// set's, which link_f1 scores. The stream runs in segments of
// calibrateEvery requests. Each segment keeps the schedule's gaps,
// waits for its replies, and is followed by a forced GC, which is not
// counted in the link CPU, and a calibration block.
func (b *bench) linkServe(s *stack) {
	n := min(int(linkServeRate*float64(b.seconds)), len(b.in.held))
	due := schedule(n, linkServeRate, b.in.seed)
	b.calibrate()
	for lo := 0; lo < n; lo += calibrateEvery {
		hi := min(lo+calibrateEvery, n)
		bodies := make([][]byte, hi-lo)
		seg := make([]time.Duration, hi-lo)
		for i := range bodies {
			bodies[i] = linkBody(b.in.held[lo+i].External.Value)
			seg[i] = due[lo+i]
			if lo > 0 {
				seg[i] -= due[lo-1]
			}
		}
		u0 := readUsage()
		replies := b.openLoop(s.h, bodies, seg, lo)
		b.linkUse[windowPhase] = b.linkUse[windowPhase].add(readUsage().sub(u0))
		b.gc()
		b.calibrate()
		for i, r := range replies {
			b.digest.Write(r.resp)
			if r.ok {
				b.linkMs.add(windowPhase, r.took)
				b.linkItems[windowPhase]++
				if lo+i < len(b.qualityAns) {
					b.qualityAns[lo+i] = r.resp
				}
			}
		}
	}
}

// ingestDurable: repeated refresh, relearn, checkpoint, WAL tail and
// restart cycles on one durable store, with no link traffic: one cycle
// per five seconds of --seconds (a cycle took two to four seconds on a
// 2-core VM). Cycle c refreshes every external
// item in rendering (c+1) mod 2 and writes the tail in the other one.
// The probes are asked before and after each restart and must answer
// identically. A calibration block runs at the start of each cycle,
// after its checkpoint, and after the last cycle.
func (b *bench) ingestDurable(s *stack) (*stack, error) {
	cycles := max(2, b.seconds/5)
	for c := 0; c < cycles; c++ {
		r := (c + 1) % 2
		b.gc()
		b.calibrate()
		b.bulk(s, r)
		b.learn(s)
		b.checkpoint(s)
		b.gc()
		b.calibrate()
		b.tail(s, 1-r)
		before := b.probe(s, b.in.probes)
		var err error
		if s, err = b.restart(s); err != nil {
			return nil, err
		}
		after := b.probe(s, b.in.probes)
		b.attempted.Add(1)
		if string(before) != string(after) {
			b.fail("cycle %d: probes answer differently after the restart", c)
		}
		b.digest.Write(after)
	}
	b.gc()
	b.calibrate()
	return s, nil
}
