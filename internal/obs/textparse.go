package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Sample is one parsed exposition sample: a metric name, its sorted
// label pairs, and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Scrape is the parsed form of one exposition payload, used by the
// round-trip tests and the CI scrape smoke.
type Scrape struct {
	Types   map[string]string // family name → counter|gauge|histogram
	Samples []Sample
}

// Get returns the first sample with the given name whose labels are a
// superset of want (nil want matches any labels).
func (s *Scrape) Get(name string, want map[string]string) (Sample, bool) {
	for _, sm := range s.Samples {
		if sm.Name != name {
			continue
		}
		ok := true
		for k, v := range want {
			if sm.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return sm, true
		}
	}
	return Sample{}, false
}

// Value returns the value of the first matching sample, or 0.
func (s *Scrape) Value(name string, want map[string]string) float64 {
	sm, _ := s.Get(name, want)
	return sm.Value
}

// ParseText parses Prometheus text exposition format (the subset this
// package emits: HELP/TYPE comments, samples with optional labels, no
// timestamps). It exists so tests can round-trip the endpoint instead
// of grepping strings.
func ParseText(r io.Reader) (*Scrape, error) {
	sc := &Scrape{Types: map[string]string{}}
	br := bufio.NewScanner(r)
	br.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for br.Scan() {
		lineNo++
		line := strings.TrimSpace(br.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[1] == "TYPE" {
				sc.Types[fields[2]] = fields[3]
			}
			continue
		}
		sample, err := parseSample(lineNo, line)
		if err != nil {
			return nil, err
		}
		sc.Samples = append(sc.Samples, sample)
	}
	if err := br.Err(); err != nil {
		return nil, err
	}
	return sc, nil
}

// parseSample parses one sample line; its errors name the line number.
func parseSample(lineNo int, line string) (Sample, error) {
	name := line
	labels := map[string]string{}
	rest := ""
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return Sample{}, core.Errorf(core.KindSyntax, "metrics line %d: unbalanced braces in %q", lineNo, line)
		}
		var err error
		labels, err = parseLabels(lineNo, line[i+1:j])
		if err != nil {
			return Sample{}, err
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return Sample{}, core.Errorf(core.KindSyntax, "metrics line %d: expected 'name value' in %q", lineNo, line)
		}
		name, rest = fields[0], fields[1]
	}
	if name == "" || rest == "" {
		return Sample{}, core.Errorf(core.KindSyntax, "metrics line %d: malformed sample %q", lineNo, line)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return Sample{}, core.Errorf(core.KindSyntax, "metrics line %d: bad value in %q: %v", lineNo, line, err)
	}
	return Sample{Name: name, Labels: labels, Value: v}, nil
}

func parseLabels(lineNo int, s string) (map[string]string, error) {
	out := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, core.Errorf(core.KindSyntax, "metrics line %d: label pair missing '=' in %q", lineNo, s)
		}
		key := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, core.Errorf(core.KindSyntax, "metrics line %d: label value for %s not quoted", lineNo, key)
		}
		// Find the closing quote, honoring backslash escapes.
		val := strings.Builder{}
		i := 1
		for i < len(s) {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
			i++
		}
		if i >= len(s) {
			return nil, core.Errorf(core.KindSyntax, "metrics line %d: unterminated label value for %s", lineNo, key)
		}
		out[key] = val.String()
		s = strings.TrimPrefix(strings.TrimSpace(s[i+1:]), ",")
		s = strings.TrimSpace(s)
	}
	return out, nil
}

// HistogramBuckets returns the cumulative bucket counts of a histogram
// family (matching extra labels), keyed and sorted by upper bound.
// The +Inf bucket sorts last.
func (s *Scrape) HistogramBuckets(name string, want map[string]string) []Sample {
	var out []Sample
	for _, sm := range s.Samples {
		if sm.Name != name+"_bucket" {
			continue
		}
		match := true
		for k, v := range want {
			if sm.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			out = append(out, sm)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return bucketBound(out[i].Labels["le"]) < bucketBound(out[j].Labels["le"])
	})
	return out
}

func bucketBound(le string) float64 {
	if le == "+Inf" {
		return float64(1 << 62)
	}
	v, _ := strconv.ParseFloat(le, 64)
	return v
}
