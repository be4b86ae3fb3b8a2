package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// escapeHelp escapes a HELP string per the Prometheus text exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeLabels(sb *strings.Builder, labels []Label, extra ...Label) {
	if len(labels)+len(extra) == 0 {
		return
	}
	sb.WriteByte('{')
	first := true
	for _, set := range [][]Label{labels, extra} {
		for _, l := range set {
			if !first {
				sb.WriteByte(',')
			}
			first = false
			sb.WriteString(l.Key)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(l.Value))
			sb.WriteByte('"')
		}
	}
	sb.WriteByte('}')
}

// writeSample writes one sample line: name, labels (extra last), value.
func writeSample(sb *strings.Builder, name string, labels []Label, value string, extra ...Label) {
	sb.WriteString(name)
	writeLabels(sb, labels, extra...)
	sb.WriteByte(' ')
	sb.WriteString(value)
	sb.WriteByte('\n')
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), families in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var sb strings.Builder
	for _, fam := range r.order {
		fmt.Fprintf(&sb, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		fmt.Fprintf(&sb, "# TYPE %s %s\n", fam.name, fam.kind)
		for _, s := range fam.series {
			switch {
			case s.hist != nil:
				writeHistogram(&sb, fam.name, s.labels, s.hist)
			case fam.kind == KindCounter:
				writeSample(&sb, fam.name, s.labels, strconv.FormatUint(uint64(s.value()), 10))
			default:
				writeSample(&sb, fam.name, s.labels, formatFloat(s.value()))
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// writeHistogram renders h down-sampled to one le per power of two, 2^minExp
// to 2^maxExp and +Inf: the same set for every histogram on every scrape.
// _count is the +Inf bucket's count, so the two agree even while Observe
// races the scrape.
func writeHistogram(sb *strings.Builder, name string, labels []Label, h *Histogram) {
	var cum uint64
	next := 0
	for k := 0; k <= octaves+1; k++ {
		end, le := numBuckets, "+Inf"
		if k <= octaves { // bound 2^(minExp+k) closes buckets [0, 1+k*subBuckets)
			end, le = 1+k*subBuckets, formatFloat(math.Ldexp(1, minExp+k))
		}
		for ; next < end; next++ {
			cum += h.counts[next].Load()
		}
		writeSample(sb, name+"_bucket", labels, strconv.FormatUint(cum, 10), L("le", le))
	}
	writeSample(sb, name+"_sum", labels, formatFloat(h.Sum()))
	writeSample(sb, name+"_count", labels, strconv.FormatUint(cum, 10))
}
