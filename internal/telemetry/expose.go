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
			if s.hist != nil {
				h := s.hist
				var cum uint64
				for i, b := range h.bounds {
					cum += h.counts[i].Load()
					sb.WriteString(fam.name)
					sb.WriteString("_bucket")
					writeLabels(&sb, s.labels, L("le", formatFloat(b)))
					fmt.Fprintf(&sb, " %d\n", cum)
				}
				cum += h.inf.Load()
				sb.WriteString(fam.name)
				sb.WriteString("_bucket")
				writeLabels(&sb, s.labels, L("le", "+Inf"))
				fmt.Fprintf(&sb, " %d\n", cum)
				sb.WriteString(fam.name)
				sb.WriteString("_sum")
				writeLabels(&sb, s.labels)
				fmt.Fprintf(&sb, " %s\n", formatFloat(h.Sum()))
				sb.WriteString(fam.name)
				sb.WriteString("_count")
				writeLabels(&sb, s.labels)
				fmt.Fprintf(&sb, " %d\n", h.Count())
				continue
			}
			sb.WriteString(fam.name)
			writeLabels(&sb, s.labels)
			sb.WriteByte(' ')
			if fam.kind == KindCounter {
				fmt.Fprintf(&sb, "%d\n", uint64(s.value()))
			} else {
				fmt.Fprintf(&sb, "%s\n", formatFloat(s.value()))
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
