package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// scrape is one parsed Prometheus text exposition: every sample line,
// keyed by its metric name plus its label pairs sorted by label name
// (`name{a="x",b="y"}`), so lookups do not depend on rendering order.
type scrape map[string]float64

// parseProm parses the text exposition format served on /metrics.
// Comment and blank lines are skipped; a trailing timestamp is ignored.
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		key, rest, err := parseSeries(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("metrics line %d: want a value and an optional timestamp, got %q", line, rest)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[key] = v
	}
	return out, sc.Err()
}

// parseSeries splits one sample line into its canonical series key and
// the text after the series (value and optional timestamp).
func parseSeries(s string) (key, rest string, err error) {
	i := strings.IndexAny(s, "{ \t")
	if i < 0 {
		return "", "", fmt.Errorf("no value in %q", s)
	}
	name := s[:i]
	if name == "" {
		return "", "", fmt.Errorf("empty metric name in %q", s)
	}
	if s[i] != '{' {
		return name, s[i:], nil
	}
	var pairs []string
	p := i + 1
	for {
		for p < len(s) && (s[p] == ' ' || s[p] == ',') {
			p++
		}
		if p < len(s) && s[p] == '}' {
			p++
			break
		}
		eq := strings.IndexByte(s[p:], '=')
		if eq < 0 || p+eq+1 >= len(s) || s[p+eq+1] != '"' {
			return "", "", fmt.Errorf("malformed label in %q", s)
		}
		label := strings.TrimSpace(s[p : p+eq])
		p += eq + 2
		var val strings.Builder
		for {
			if p >= len(s) {
				return "", "", fmt.Errorf("unterminated label value in %q", s)
			}
			c := s[p]
			p++
			if c == '"' {
				break
			}
			if c == '\\' && p < len(s) {
				switch s[p] {
				case 'n':
					c = '\n'
				default:
					c = s[p]
				}
				p++
			}
			val.WriteByte(c)
		}
		pairs = append(pairs, label+"="+strconv.Quote(val.String()))
	}
	sort.Strings(pairs)
	if len(pairs) == 0 {
		return name, s[p:], nil
	}
	return name + "{" + strings.Join(pairs, ",") + "}", s[p:], nil
}

// seriesKey renders the canonical key for name with label name/value
// pairs given alternately.
func seriesKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+"="+strconv.Quote(labels[i+1]))
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// get returns one series value (0 when absent: the gateway renders every
// family it owns, so an absent series is one that never moved).
func (s scrape) get(name string, labels ...string) float64 {
	return s[seriesKey(name, labels...)]
}

// sum adds every series of the named metric, whatever its labels.
func (s scrape) sum(name string) float64 {
	total := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// sumWhere adds the series of the named metric that carry label=value.
func (s scrape) sumWhere(name, label, value string) float64 {
	pair := "," + label + "=" + strconv.Quote(value)
	total := 0.0
	for k, v := range s {
		rest, ok := strings.CutPrefix(k, name+"{")
		if !ok {
			continue
		}
		rest = "," + rest
		if strings.Contains(rest, pair+",") || strings.HasSuffix(rest, pair+"}") {
			total += v
		}
	}
	return total
}

// sub returns the per-series difference s - base (the window delta).
func (s scrape) sub(base scrape) scrape {
	out := make(scrape, len(s))
	for k, v := range s {
		out[k] = v - base[k]
	}
	return out
}

// histMean returns the mean observation of a histogram series (sum over
// count), in the histogram's own unit; 0 when nothing was observed.
func (s scrape) histMean(name string, labels ...string) float64 {
	return ratio(s.get(name+"_sum", labels...), s.get(name+"_count", labels...))
}
