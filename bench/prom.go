package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSample is one scrape of a dvrd /metrics endpoint in Prometheus text
// form: series name (labels included, as printed) to value.
type promSample map[string]float64

// parseProm reads Prometheus text exposition. Comment lines are skipped;
// a trailing OpenMetrics exemplar ("# {...}") after the value is ignored.
func parseProm(r io.Reader) (promSample, error) {
	out := make(promSample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		// The series name ends at the last '}' when labels are present
		// (label values may hold spaces), else at the first space.
		split := strings.IndexByte(line, ' ')
		if i := strings.LastIndexByte(line, '}'); i >= 0 {
			split = i + 1
		}
		if split <= 0 || split >= len(line) {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		fields := strings.Fields(line[split:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		out[line[:split]] = v
	}
	return out, sc.Err()
}

// delta returns after-before for every series in after. Counters that a
// process exposes only once they are nonzero count from zero.
func (after promSample) delta(before promSample) promSample {
	d := make(promSample, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// histMean returns the mean observation, in seconds, of histogram name over
// a delta sample; 0 when nothing was observed.
func (d promSample) histMean(name string) float64 {
	if n := d[name+"_count"]; n > 0 {
		return d[name+"_sum"] / n
	}
	return 0
}

// scrape fetches base/metrics as Prometheus text.
func scrape(ctx context.Context, hc *http.Client, base string) (promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: %s answered %s", base, resp.Status)
	}
	return parseProm(resp.Body)
}
