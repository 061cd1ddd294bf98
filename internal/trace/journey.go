package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/packet"
	"repro/internal/telemetry"
)

// Hop is one step of a reconstructed packet journey.
type Hop struct {
	At      time.Duration
	Where   string // switch/edge name
	InPort  int
	Encoded int // modulo residue computed there
	OutPort int // port actually taken
	// Cause is empty for on-path forwards, a deflection cause label
	// when the switch deflected, or "reencode" when a misdelivered
	// packet re-entered with a fresh route ID.
	Cause     string
	QueueWait time.Duration // head-of-line wait on the outgoing link
	TxTime    time.Duration // serialisation time on the outgoing link
}

// Journey is one sampled packet's reconstructed path through the core.
type Journey struct {
	Flow    packet.FlowID
	PktKind packet.Kind
	Seq     uint64

	Start time.Duration // inject instant
	End   time.Duration // decap/drop instant (== Start while in flight)

	// Outcome: "delivered", "dropped(<reason>)", or "in-flight".
	Outcome string
	Where   string // egress edge or drop site

	Hops     []Hop
	HopCount int // links traversed (packet's Hops at journey end)
	Baseline int // encoded-path hop count at inject (0 unknown)
}

// Deflections counts hops that left the encoded path.
func (j Journey) Deflections() int {
	n := 0
	for _, h := range j.Hops {
		if h.Cause != "" && h.Cause != "reencode" {
			n++
		}
	}
	return n
}

// Stretch is HopCount over Baseline (0 when the baseline is unknown
// or the journey was not delivered — a packet dropped mid-path has
// fewer hops than the baseline by dying, not by routing well).
func (j Journey) Stretch() float64 {
	if j.Outcome != "delivered" || j.Baseline <= 0 || j.HopCount <= 0 {
		return 0
	}
	return float64(j.HopCount) / float64(j.Baseline)
}

// WriteJourney renders one journey as text: a summary line, then one
// line per hop with its in-port, the port taken and, for a deflected
// hop, the cause and the encoded port, then the drop site if the
// packet was lost.
func WriteJourney(w io.Writer, j Journey) error {
	var b strings.Builder
	stretch := ""
	if s := j.Stretch(); s > 0 {
		stretch = fmt.Sprintf(" stretch=%.2f (baseline %d)", s, j.Baseline)
	}
	fmt.Fprintf(&b, "journey %s->%s %s seq=%d: %s in %s, %d hops, %d deflections%s\n",
		j.Flow.Src, j.Flow.Dst, j.PktKind, j.Seq,
		j.Outcome, fmtMs(j.End-j.Start), j.HopCount, j.Deflections(), stretch)
	for _, h := range j.Hops {
		cause := ""
		if h.Cause != "" {
			cause = fmt.Sprintf("  [%s: encoded port %d]", h.Cause, h.Encoded)
		}
		wait := ""
		if h.QueueWait > 0 {
			wait = fmt.Sprintf("  queued %s", fmtMs(h.QueueWait))
		}
		in := ""
		if h.InPort >= 0 {
			in = fmt.Sprintf("in %d ", h.InPort)
		}
		fmt.Fprintf(&b, "  %10s  %-8s %sout %d%s%s\n",
			fmtMs(h.At), h.Where, in, h.OutPort, cause, wait)
	}
	if j.Outcome != "delivered" && j.Outcome != "in-flight" {
		fmt.Fprintf(&b, "  %10s  %s at %s\n", fmtMs(j.End), j.Outcome, j.Where)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// fmtMs renders a duration in milliseconds to the microsecond.
func fmtMs(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond))
}

// journeyKey identifies one packet instance: transports never reuse a
// (flow, kind, seq) triple for distinct live packets — a retransmission
// supersedes its predecessor, which the reconstruction models by
// starting a fresh journey at each inject.
type journeyKey struct {
	flow packet.FlowID
	kind packet.Kind
	seq  uint64
}

// Journeys reconstructs per-packet journeys from a record stream (as
// captured by a Recorder or re-read from JSONL). Records must be in
// recording order. Journeys are returned in order of completion, with
// still-open journeys appended in inject order.
func Journeys(recs []Record) []Journey {
	open := make(map[journeyKey]*Journey)
	keys := make([]journeyKey, 0, 16) // inject order of open journeys
	var done []Journey

	closeJourney := func(k journeyKey, j *Journey, rec Record, outcome string) {
		j.End = rec.At
		j.Outcome = outcome
		j.Where = rec.Where
		j.HopCount = rec.Hops
		done = append(done, *j)
		delete(open, k)
	}

	for _, rec := range recs {
		k := journeyKey{flow: rec.Flow, kind: rec.PktKind, seq: rec.Seq}
		switch rec.Kind {
		case RecInject:
			// A retransmission reuses the triple; the old instance is
			// gone from the network, so supersede silently.
			if _, ok := open[k]; !ok {
				keys = append(keys, k)
			}
			open[k] = &Journey{
				Flow: rec.Flow, PktKind: rec.PktKind, Seq: rec.Seq,
				Start: rec.At, End: rec.At, Outcome: "in-flight",
				Baseline: rec.Baseline,
				Hops: []Hop{{
					At: rec.At, Where: rec.Where,
					InPort: -1, Encoded: rec.Encoded, OutPort: rec.OutPort,
				}},
			}
		case RecHop:
			if j := open[k]; j != nil {
				j.Hops = append(j.Hops, Hop{
					At: rec.At, Where: rec.Where,
					InPort: rec.InPort, Encoded: rec.Encoded, OutPort: rec.OutPort,
					Cause: rec.Cause,
				})
			}
		case RecReencode:
			if j := open[k]; j != nil {
				j.Hops = append(j.Hops, Hop{
					At: rec.At, Where: rec.Where,
					InPort: -1, Encoded: rec.Encoded, OutPort: rec.OutPort,
					Cause: "reencode",
				})
			}
		case RecTx:
			// Annotate the pending hop with its link-level timing.
			if j := open[k]; j != nil && len(j.Hops) > 0 {
				h := &j.Hops[len(j.Hops)-1]
				h.QueueWait = rec.QueueWait
				h.TxTime = rec.TxTime
			}
		case RecDecap:
			if j := open[k]; j != nil {
				closeJourney(k, j, rec, "delivered")
			}
		case RecDrop:
			if j := open[k]; j != nil {
				closeJourney(k, j, rec, "dropped("+rec.Cause+")")
			}
		}
	}

	// Append journeys that never finished, in inject order.
	for _, k := range keys {
		if j, ok := open[k]; ok {
			done = append(done, *j)
		}
	}
	return done
}

// Reaction is one reconstructed control-plane reaction chain: a link
// transition and the cascade it triggered. Durations are virtual-time
// instants; -1 marks a milestone that never happened (e.g. detection
// disabled, or reaction off).
type Reaction struct {
	Link string
	Kind string // "fail" or "repair"

	At           time.Duration // physical transition
	DetectedAt   time.Duration // switch-local detection
	NotifiedAt   time.Duration // controller notification
	RerouteAt    time.Duration // first affected-route recompute landed
	InstallAt    time.Duration // last table/ingress install of the batch
	FirstDelived time.Duration // first decap at/after InstallAt

	Reroutes  int // affected routes recomputed (ok + failed)
	Failures  int // recomputes that kept the old route
	Installs  int // ingress installs attributed to this chain
	Reencodes int // data-plane re-encodes between At and InstallAt
}

// Unset is the milestone value for steps that never happened.
const Unset = time.Duration(-1)

// Latency milestones relative to the physical transition; Unset when
// the milestone never happened.
func (r Reaction) DetectionLatency() time.Duration { return sub(r.DetectedAt, r.At) }
func (r Reaction) NotifyLatency() time.Duration    { return sub(r.NotifiedAt, r.At) }
func (r Reaction) RerouteLatency() time.Duration   { return sub(r.RerouteAt, r.At) }
func (r Reaction) InstallLatency() time.Duration   { return sub(r.InstallAt, r.At) }
func (r Reaction) RecoveryLatency() time.Duration  { return sub(r.FirstDelived, r.At) }

func sub(a, base time.Duration) time.Duration {
	if a < 0 {
		return Unset
	}
	return a - base
}

// Reactions reconstructs control-plane reaction chains from a record
// stream. A chain opens at link_fail/link_repair; detection events are
// matched back by link name; reroute and ingress_install records are
// attributed to the most recent notification (installs during world
// setup, before any failure, attach to no chain). FirstDelived is the
// first sampled decap at or after the chain's last install — the
// "first post-repair delivery" observability milestone.
func Reactions(recs []Record) []Reaction {
	var chains []*Reaction
	byLink := make(map[string]*Reaction) // most recent chain per link
	var lastNotified *Reaction

	for _, rec := range recs {
		if rec.Kind != RecCtrl {
			continue
		}
		switch rec.Event {
		case telemetry.EventLinkFail, telemetry.EventLinkRepair:
			kind := "fail"
			if rec.Event == telemetry.EventLinkRepair {
				kind = "repair"
			}
			r := &Reaction{
				Link: rec.Where, Kind: kind, At: rec.At,
				DetectedAt: Unset, NotifiedAt: Unset,
				RerouteAt: Unset, InstallAt: Unset, FirstDelived: Unset,
			}
			chains = append(chains, r)
			byLink[rec.Where] = r
		case telemetry.EventLinkDetectDown, telemetry.EventLinkDetectUp:
			if r := byLink[rec.Where]; r != nil && r.DetectedAt < 0 {
				r.DetectedAt = rec.At
			}
		case telemetry.EventNotify:
			if r := byLink[rec.Where]; r != nil {
				if r.NotifiedAt < 0 {
					r.NotifiedAt = rec.At
				}
				lastNotified = r
			}
		case telemetry.EventReroute:
			if r := lastNotified; r != nil {
				if r.RerouteAt < 0 {
					r.RerouteAt = rec.At
				}
				r.Reroutes++
				if !strings.Contains(rec.Detail, " ok") {
					r.Failures++
				}
			}
		case telemetry.EventIngressInstall:
			if r := lastNotified; r != nil {
				r.InstallAt = rec.At
				r.Installs++
			}
		case telemetry.EventReencode:
			if r := lastNotified; r != nil && r.InstallAt < 0 {
				r.Reencodes++
			}
		}
	}

	// Post-pass: first sampled delivery at/after each chain's install.
	var decaps []time.Duration
	for _, rec := range recs {
		if rec.Kind == RecDecap {
			decaps = append(decaps, rec.At)
		}
	}
	sort.Slice(decaps, func(i, j int) bool { return decaps[i] < decaps[j] })
	for _, r := range chains {
		if r.InstallAt < 0 || len(decaps) == 0 {
			continue
		}
		i := sort.Search(len(decaps), func(i int) bool { return decaps[i] >= r.InstallAt })
		if i < len(decaps) {
			r.FirstDelived = decaps[i]
		}
	}

	out := make([]Reaction, len(chains))
	for i, r := range chains {
		out[i] = *r
	}
	return out
}
