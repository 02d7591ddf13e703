package netadv

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"

	"failstop/internal/byz"
	"failstop/internal/host"
	"failstop/internal/model"
	"failstop/internal/node"
)

// ByzRule is one Byzantine-fault entry of a plan's timeline: it makes one
// process's outgoing traffic actively malicious — corrupted, equivocating,
// or replayed — rather than merely lossy. The victim process itself runs
// the protocol honestly; the plane forges its wire traffic, which is
// indistinguishable to every receiver from the victim being Byzantine.
//
// Like every netadv fate, Byzantine fates are seed-deterministic pure
// functions of (rule, link, per-link message index): sweeps stay
// byte-identical across worker counts and shard/merge, and the live
// runtime assigns the same fates the simulator does for each link's send
// sequence.
//
//sfs:wire
type ByzRule struct {
	// Victim is the process whose outgoing traffic the rule forges.
	Victim model.ProcID `json:"victim"`
	// From and Until bound the active window in ticks, as for Rule.
	From  int64 `json:"from,omitempty"`
	Until int64 `json:"until,omitempty"`
	// Tags restricts the rule to messages with these payload tags (e.g.
	// only the quorum protocol's "j failed" traffic). Empty = all messages.
	Tags []string `json:"tags,omitempty"`
	// Corrupt is the probability a matching message's payload is mutated
	// in place: the subject field is rotated to name a different process
	// (or, for subject-less payloads, a data byte is flipped) without
	// fixing up any authentication — under the internal/byz interposer the
	// frame then fails its MAC check.
	Corrupt float64 `json:"corrupt,omitempty"`
	// Equivocate splits the victim's receivers into groups that see
	// different variants of each matching message: group 0 (and every
	// unlisted receiver) gets the true payload, group g gets the subject
	// rotated by g — and, for sealed frames, resealed under the victim's
	// key, so each variant authenticates and only a broadcast-consistency
	// cross-check (the interposer's echo quorum) can catch the split.
	// At least two groups; members must be distinct and exclude the victim.
	Equivocate [][]model.ProcID `json:"equivocate,omitempty"`
	// Replay is the probability that, alongside a matching message, the
	// plane re-injects the previously transmitted matching wire payload on
	// the same link as a ghost copy.
	Replay float64 `json:"replay,omitempty"`
	// ReplayDelay delays each ghost copy this many ticks beyond the host's
	// base delay. The byz interposer discards a ghost of a frame it has
	// already seen however late it lands: a replay is a late duplicate.
	ReplayDelay int64 `json:"replay_delay,omitempty"`
}

// noop reports whether the rule forges nothing at all.
func (b ByzRule) noop() bool {
	return b.Corrupt == 0 && len(b.Equivocate) == 0 && b.Replay == 0
}

// validateByz checks one of the plan's Byzantine rules for Validate.
func (p Plan) validateByz(b ByzRule, n int) error {
	if b.Victim < 1 || int(b.Victim) > n {
		return fmt.Errorf("victim %d outside 1..%d", b.Victim, n)
	}
	if err := cmp.Or(
		host.CheckTick("From", b.From), host.CheckTick("Until", b.Until), host.CheckTick("ReplayDelay", b.ReplayDelay),
		checkWindow(b.From, b.Until),
		checkProb("Corrupt", b.Corrupt), checkProb("Replay", b.Replay),
		checkTags(b.Tags),
		checkGroups(b.Equivocate, n, b.Victim, "equivocation group"),
	); err != nil {
		return err
	}
	switch {
	case b.ReplayDelay != 0 && b.Replay == 0:
		return fmt.Errorf("ReplayDelay %d without Replay", b.ReplayDelay)
	case b.noop():
		return errors.New("no effect (none of Corrupt/Equivocate/Replay set)")
	case len(b.Equivocate) == 1:
		return errors.New("Equivocate needs at least 2 groups (one group has no one to disagree with)")
	}
	// A rule whose whole window sits inside an unconditional all-link Cut
	// can never put a forged frame on the wire.
	for ri, r := range p.Rules {
		if !r.Cut || r.Period != 0 || !r.Links.Empty() {
			continue
		}
		windowCovered := r.From <= b.From && (r.Until == 0 || (b.Until != 0 && b.Until <= r.Until))
		tagsCovered := len(r.Tags) == 0 || len(b.Tags) > 0 && !slices.ContainsFunc(b.Tags, func(t string) bool {
			return !slices.Contains(r.Tags, t)
		})
		if windowCovered && tagsCovered {
			return fmt.Errorf("its window lies inside rule %d's unconditional Cut, so it can never fire", ri)
		}
	}
	return nil
}

// compiledByz is a ByzRule with its equivocation groups resolved into a
// constant-time lookup; its Tags, a short list, are scanned.
type compiledByz struct {
	ByzRule
	groupOf node.Table[int] // receiver -> equivocation group
	// replayMem is, per directed link, the last matching wire payload — the
	// frame the rule's replays re-inject.
	replayMem node.Table[node.Payload]
}

// matches reports whether the rule forges a message its victim sends with
// tag at tick at.
func (cb *compiledByz) matches(from model.ProcID, tag string, at int64) bool {
	return from == cb.Victim && inWindow(at, cb.From, cb.Until) && tagMatches(cb.Tags, tag)
}

// applyByz applies the plan's Byzantine rules to one decided message,
// composing onto dec. Dropped messages put nothing on the wire, so there
// is nothing to forge or remember. Fates derive from a per-rule lazy
// stream over (seed, rule, link, index) — separate from the network rules'
// shared stream, so adding Byzantine rules to a plan never shifts the
// fates its existing rules assign.
func (pl *Plane) applyByz(dec *node.LinkDecision, from, to model.ProcID, p node.Payload, idx uint64, at int64) {
	if len(pl.byzRules) == 0 || dec.Drop {
		return
	}
	wire := p // what actually goes on the wire, mutations composed
	anyReplay := false
	for bi := range pl.byzRules {
		cb := &pl.byzRules[bi]
		if !cb.matches(from, p.Tag, at) {
			continue
		}
		brng := newByzStream(pl.seed, bi, from, to, idx)
		corruptRoll := brng.float64()
		replayRoll := brng.float64()
		delta := 1 + int(brng.uint64()%uint64(pl.n-1))
		if g := groupIndex(&cb.groupOf, to); g > 0 {
			// Equivocation: this receiver's group sees the subject rotated
			// by the group index, resealed so the variant authenticates.
			wire = equivocatePayload(wire, from, g, pl.n)
			dec.Replace = &node.Replacement{Payload: wire, Note: "equiv=g" + strconv.Itoa(g)}
			pl.fates[fateEquivocated].Inc()
		} else if cb.Corrupt > 0 && corruptRoll < cb.Corrupt {
			// Corruption: mutate without resealing — an authenticated frame
			// then fails its MAC check at the receiver.
			wire = corruptPayload(wire, delta, pl.n)
			dec.Replace = &node.Replacement{Payload: wire, Note: "corrupt"}
			pl.fates[fateCorrupted].Inc()
		}
		if cb.Replay > 0 && replayRoll < cb.Replay {
			pl.mu.Lock()
			mem := cb.replayMem.GetLink(from, to)
			pl.mu.Unlock()
			if mem != nil {
				dec.Replay = &node.ReplayedCopy{Payload: *mem, Delay: cb.ReplayDelay}
				pl.fates[fateReplayed].Inc()
			}
		}
		if cb.Replay > 0 {
			anyReplay = true
		}
	}
	if !anyReplay {
		return
	}
	// Remember what actually went on the wire, per (rule, link), for the
	// rule's future replays.
	pl.mu.Lock()
	for bi := range pl.byzRules {
		cb := &pl.byzRules[bi]
		if cb.Replay > 0 && cb.matches(from, p.Tag, at) {
			mem, _ := cb.replayMem.AddLink(from, to)
			*mem = wire
		}
	}
	pl.mu.Unlock()
}

// equivocatePayload is variant g of a broadcast payload: the subject
// rotated by g and, when the payload is sealed by the internal/byz layer
// (directly or under a reliable-layer frame), resealed under the sender's
// key — the Byzantine sender signs its own lies, so only the echo quorum's
// consistency cross-check can catch the split.
func equivocatePayload(p node.Payload, sender model.ProcID, g, n int) node.Payload {
	ns := rotateSubject(p.Subject, g, n)
	if off, ok := sealedBodyOffset(p.Data); ok {
		if resealed, ok2 := byz.Reseal(p.Data[off:], sender, p.Tag, ns); ok2 {
			data := append(append([]byte(nil), p.Data[:off]...), resealed...)
			return node.Payload{Tag: p.Tag, Subject: ns, Data: data}
		}
	}
	return node.Payload{Tag: p.Tag, Subject: ns, Data: p.Data}
}

// corruptPayload mutates one field deterministically: the subject rotates
// to name a different process; subject-less payloads get a data byte
// flipped; empty payloads get a subject forged from nothing.
func corruptPayload(p node.Payload, delta, n int) node.Payload {
	out := p
	switch {
	case p.Subject != model.None:
		out.Subject = rotateSubject(p.Subject, delta, n)
	case len(p.Data) > 0:
		data := append([]byte(nil), p.Data...)
		data[len(data)-1] ^= 0x01
		out.Data = data
	default:
		out.Subject = model.ProcID(delta)
	}
	return out
}

// rotateSubject maps s to another process id, delta steps around 1..n.
func rotateSubject(s model.ProcID, delta, n int) model.ProcID {
	return model.ProcID(((int(s)-1+delta)%n+n)%n + 1)
}

// sealedBodyOffset locates a byz-sealed body inside wire data: sealed
// directly, or sealed under the link layer's framing (node.WireBodyFn).
func sealedBodyOffset(data []byte) (off int, ok bool) {
	if byz.Sealed(data) {
		return 0, true
	}
	if node.WireBodyFn != nil {
		if off, ok := node.WireBodyFn(data); ok && byz.Sealed(data[off:]) {
			return off, true
		}
	}
	return 0, false
}

// newByzStream seeds one Byzantine rule's lazy fate stream for one message:
// a distinct salt and the rule index keep it independent of the network
// rules' shared stream and of every other Byzantine rule.
func newByzStream(seed int64, rule int, from, to model.ProcID, idx uint64) stream {
	const byzSalt = 0x7c3d1e9a55f20b64
	return newStream(int64(model.Mix(uint64(seed)^byzSalt^uint64(rule)*0x9e3779b97f4a7c15)), from, to, idx)
}
