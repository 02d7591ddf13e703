package runtime_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"failstop/internal/host"
	"failstop/internal/model"
	"failstop/internal/node"
	"failstop/internal/obs"
	"failstop/internal/runtime"
	"failstop/internal/sim"
)

// fateSend is one scripted send: from sends tag to its peer (the test runs
// two processes), and the link decides dec for it.
type fateSend struct {
	from model.ProcID
	tag  string
	dec  node.LinkDecision
}

// fateOutcome is what a fate script does to a network, in terms both
// backends (and the shared fate function on its own) can be read in.
type fateOutcome struct {
	// Delivered holds, per link "from->to", the payload tags received, in
	// order.
	Delivered map[string][]string
	// Sent, Received, Dropped and Duplicated are the host counters.
	Sent, Received, Dropped, Duplicated int64
	// Chains holds, per message (named by the tag it was sent with), the
	// kinds of its spans in record order.
	Chains map[string][]obs.SpanKind
}

var (
	forged = &node.Replacement{Payload: node.Payload{Tag: "forged"}, Note: "corrupt"}
	ghost  = &node.ReplayedCopy{Payload: node.Payload{Tag: "ghost"}, Delay: 3}
)

// fateCases is the table: a script, and what each link must deliver under it
// — written out, so that the shared fate function is held to the contract and
// not only to agreeing with itself.
var fateCases = []struct {
	name      string
	sends     []fateSend
	delivered map[string][]string
}{
	{"zero", []fateSend{{1, "a", node.LinkDecision{}}, {2, "b", node.LinkDecision{}}},
		map[string][]string{"1->2": {"a"}, "2->1": {"b"}}},
	// The reverse direction still flows past a dropping link.
	{"drop", []fateSend{
		{1, "a", node.LinkDecision{Drop: true}}, {2, "ok", node.LinkDecision{}}, {1, "b", node.LinkDecision{Drop: true}},
	}, map[string][]string{"2->1": {"ok"}}},
	// A parked head blocks its channel, and only its channel.
	{"park", []fateSend{
		{1, "a", node.LinkDecision{}}, {1, "parked", node.LinkDecision{Park: true}},
		{1, "behind", node.LinkDecision{}}, {2, "ok", node.LinkDecision{}},
	}, map[string][]string{"1->2": {"a"}, "2->1": {"ok"}}},
	{"duplicates", []fateSend{{1, "a", node.LinkDecision{Duplicates: 2}}, {1, "b", node.LinkDecision{}}},
		map[string][]string{"1->2": {"a", "a", "a", "b"}}},
	{"reorder", []fateSend{
		{1, "a", node.LinkDecision{}}, {1, "b", node.LinkDecision{}}, {1, "c", node.LinkDecision{Reorder: true}},
	}, map[string][]string{"1->2": {"a", "c", "b"}}},
	// With fewer than two queued there is no tail to overtake.
	{"reorder on a short queue", []fateSend{
		{1, "a", node.LinkDecision{Reorder: true}}, {1, "b", node.LinkDecision{Reorder: true}},
	}, map[string][]string{"1->2": {"a", "b"}}},
	// FIFO holds whatever the delays: b waits behind a.
	{"extra delay", []fateSend{{1, "a", node.LinkDecision{ExtraDelay: 5}}, {1, "b", node.LinkDecision{}}},
		map[string][]string{"1->2": {"a", "b"}}},
	{"replace", []fateSend{{1, "a", node.LinkDecision{Replace: forged}}, {1, "b", node.LinkDecision{}}},
		map[string][]string{"1->2": {"forged", "b"}}},
	{"replay", []fateSend{{1, "a", node.LinkDecision{}}, {1, "b", node.LinkDecision{Replay: ghost}}},
		map[string][]string{"1->2": {"a", "b", "ghost"}}},
	// Each copy overtakes the tail of its moment: c, then c again, ahead of b.
	{"duplicates+reorder", []fateSend{
		{1, "a", node.LinkDecision{}}, {1, "b", node.LinkDecision{}},
		{1, "c", node.LinkDecision{Duplicates: 1, Reorder: true}},
	}, map[string][]string{"1->2": {"a", "c", "c", "b"}}},
	{"park+duplicates", []fateSend{
		{1, "a", node.LinkDecision{}}, {1, "parked", node.LinkDecision{Park: true, Duplicates: 1}}, {1, "behind", node.LinkDecision{}},
	}, map[string][]string{"1->2": {"a"}}},
	{"replace+replay", []fateSend{{1, "a", node.LinkDecision{Replace: forged, Replay: ghost}}},
		map[string][]string{"1->2": {"forged", "ghost"}}},
	{"drop wins over replace", []fateSend{{1, "a", node.LinkDecision{Drop: true, Replace: forged}}, {1, "b", node.LinkDecision{}}},
		map[string][]string{"1->2": {"b"}}},
}

// script returns the link function of a fate script: the decision of the
// send with the payload's tag. It only reads, so the live backend's
// concurrent senders may share it.
func script(sends []fateSend) node.LinkFn {
	byTag := make(map[string]node.LinkDecision, len(sends))
	for _, s := range sends {
		byTag[s.tag] = s.dec
	}
	return func(_, _ model.ProcID, p node.Payload, _ int64) node.LinkDecision { return byTag[p.Tag] }
}

func linkName(from, to model.ProcID) string { return fmt.Sprintf("%d->%d", from, to) }

// chains groups spans by message, naming each message by its send span's tag.
func chains(spans []obs.Span) map[string][]obs.SpanKind {
	tagOf := map[model.MsgID]string{}
	for _, s := range spans {
		if s.Kind == obs.SpanSend {
			tagOf[s.Msg] = s.Tag
		}
	}
	out := map[string][]obs.SpanKind{}
	for _, s := range spans {
		out[tagOf[s.Msg]] = append(out[tagOf[s.Msg]], s.Kind)
	}
	return out
}

// modelFates drives the script through the shared fate function alone and
// queues the copies it returns as a host would: a copy joins its link's tail,
// or lands one before it under reorder; the copies ahead of the first parked
// one are delivered.
func modelFates(sends []fateSend) fateOutcome {
	type copyOf struct {
		sent, wire string
		parked     bool
	}
	core := host.Core{Names: host.MetricNames("model_"), Link: script(sends), Spans: obs.NewSpanRecorder(1, 1)}
	core.Init("model", 2, nil)
	queues := map[string][]copyOf{}
	var copies []host.Copy
	var tally host.Tally
	for _, s := range sends {
		to := 3 - s.from
		core.CheckSend(s.from, to)
		link := linkName(s.from, to)
		copies = core.Route(&tally, 0, 0, s.from, to, core.Number(&tally), node.Payload{Tag: s.tag}, copies)
		for _, c := range copies {
			wire := s.tag
			if c.Wire != nil {
				wire = c.Wire.Tag
			}
			q := append(queues[link], copyOf{s.tag, wire, c.Park})
			if n := len(q); c.Reorder && n > 2 {
				q[n-1], q[n-2] = q[n-2], q[n-1]
			}
			queues[link] = q
		}
	}
	core.Publish(&tally)
	out := fateOutcome{
		Delivered: map[string][]string{},
		Sent:      core.Counters[host.Sent].Value(), Dropped: core.Counters[host.Dropped].Value(), Duplicated: core.Counters[host.Duplicated].Value(),
		Chains: chains(core.Spans.Spans()),
	}
	for link, q := range queues {
		for _, c := range q {
			if c.parked {
				break
			}
			out.Delivered[link] = append(out.Delivered[link], c.wire)
			out.Chains[c.sent] = append(out.Chains[c.sent], obs.SpanDeliver)
			out.Received++
		}
	}
	return out
}

// receiver records what arrives, per link.
type receiver struct {
	collector
	self model.ProcID
	into func(link, tag string)
}

func (r *receiver) OnMessage(_ node.Context, from model.ProcID, p node.Payload) {
	r.into(linkName(from, r.self), p.Tag)
}

// simFates runs the script on the simulator: every send at tick 0.
func simFates(sends []fateSend) fateOutcome {
	spans := obs.NewSpanRecorder(1, 1)
	s := sim.New(sim.Config{N: 2, Seed: 1, Link: script(sends), Spans: spans})
	out := fateOutcome{Delivered: map[string][]string{}}
	for p := model.ProcID(1); p <= 2; p++ {
		s.SetHandler(p, &receiver{self: p, into: func(link, tag string) {
			out.Delivered[link] = append(out.Delivered[link], tag)
		}})
		s.At(0, p, func(ctx node.Context) {
			for _, snd := range sends {
				if snd.from == p {
					ctx.Send(3-p, node.Payload{Tag: snd.tag})
				}
			}
		})
	}
	res := s.Run()
	out.Sent, out.Received = int64(res.Sent), int64(res.Delivered)
	out.Dropped, out.Duplicated = int64(res.Dropped), int64(res.Duplicated)
	out.Chains = chains(spans.Spans())
	return out
}

// liveFates runs the script on the live runtime until want copies have
// arrived, plus a grace period in which nothing more may. Each process sends
// its share from one injected callback, and no callback returns before every
// process has sent: a worker inside a callback delivers nothing, so — as on
// the simulator, where every send happens at tick 0 — each copy is queued
// behind all the copies sent before it.
func liveFates(sends []fateSend, want int64) fateOutcome {
	spans := obs.NewSpanRecorder(1, 1)
	cfg := fastCfg(2, 1)
	cfg.Link, cfg.Spans = script(sends), spans
	net := runtime.New(cfg)
	out := fateOutcome{Delivered: map[string][]string{}}
	arrived := make(chan struct{}, 64) // more than any script delivers
	var mu sync.Mutex                  // orders the two receivers' writes
	for p := model.ProcID(1); p <= 2; p++ {
		net.SetHandler(p, &receiver{self: p, into: func(link, tag string) {
			mu.Lock()
			out.Delivered[link] = append(out.Delivered[link], tag)
			mu.Unlock()
			arrived <- struct{}{}
		}})
	}
	net.Start()
	var inside, sent sync.WaitGroup
	inside.Add(2)
	sent.Add(2)
	for p := model.ProcID(1); p <= 2; p++ {
		net.Do(p, func(ctx node.Context) {
			inside.Done()
			inside.Wait()
			for _, snd := range sends {
				if snd.from == p {
					ctx.Send(3-p, node.Payload{Tag: snd.tag})
				}
			}
			sent.Done()
			sent.Wait()
		})
	}
	timeout := time.After(5 * time.Second)
wait:
	for got := int64(0); got < want; got++ {
		select {
		case <-arrived:
		case <-timeout:
			break wait
		}
	}
	time.Sleep(10 * time.Millisecond)
	net.Stop()
	ms := net.Metrics()
	out.Sent, out.Received = ms.Value("net_sent_total"), ms.Value("net_delivered_total")
	out.Dropped, out.Duplicated = ms.Value("net_dropped_total"), ms.Value("net_duplicated_total")
	out.Chains = chains(spans.Spans())
	return out
}

// TestLinkFates drives every shape of node.LinkDecision through the shared
// fate function, the simulator and the live runtime, and requires the three
// to agree on what each link delivered, on the host counters, and on every
// message's span chain (send → fate → enqueue… → deliver…, or → drop).
func TestLinkFates(t *testing.T) {
	for _, tc := range fateCases {
		t.Run(tc.name, func(t *testing.T) {
			want := modelFates(tc.sends)
			if !reflect.DeepEqual(want.Delivered, tc.delivered) {
				t.Errorf("shared fate function: delivers %v, want %v", want.Delivered, tc.delivered)
			}
			if got := simFates(tc.sends); !reflect.DeepEqual(got, want) {
				t.Errorf("simulator:\n got %+v\nwant %+v", got, want)
			}
			if got := liveFates(tc.sends, want.Received); !reflect.DeepEqual(got, want) {
				t.Errorf("live runtime:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}
