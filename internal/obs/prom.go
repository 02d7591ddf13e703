package obs

import (
	"bufio"
	"io"
	"strconv"
)

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4): each counter and gauge as one sample under its
// TYPE line. Input order is preserved, so a sorted Metrics renders
// deterministically.
func WritePrometheus(w io.Writer, ms Metrics) error {
	bw := bufio.NewWriter(w)
	for _, m := range ms {
		if m.Kind != KindCounter && m.Kind != KindGauge {
			continue // skip invalid kinds rather than emit unparsable text
		}
		bw.WriteString("# TYPE " + m.Name + " " + m.Kind.String() + "\n")
		bw.WriteString(m.Name + " " + strconv.FormatInt(m.Value, 10) + "\n")
	}
	return bw.Flush()
}
