package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
)

// Request is one query of a workload's traffic. The same value drives
// both sides of the benchmark: URL renders it as an HTTP call on the
// hillview binary, and the traced replay turns it into spreadsheet.View
// calls. Derived-view names are not part of a request: the issuing
// client mints them, so two sends of one shape are the same request.
type Request struct {
	Class   string `json:"class"` // latency class, e.g. "O1" or "dash.hist"
	Kind    string `json:"kind"`  // table, histogram, filterhist, heavyhitters, heatmap, meta
	Col     string `json:"col,omitempty"`
	Col2    string `json:"col2,omitempty"`
	Order   string `json:"order,omitempty"` // "+A,-B" sort spec
	Extra   string `json:"extra,omitempty"` // comma-separated extra columns
	K       int    `json:"k,omitempty"`
	Bars    int    `json:"bars,omitempty"`
	CDF     bool   `json:"cdf,omitempty"`
	Exact   bool   `json:"exact,omitempty"`
	Sampled bool   `json:"sampled,omitempty"`
	Expr    string `json:"expr,omitempty"` // filter predicate (filterhist)
}

// Shape is the request's identity: requests with one shape must get
// equivalent answers, so the reference computes each shape once.
func (r Request) Shape() string {
	b, _ := json.Marshal(r) // a struct of strings, ints and bools always marshals
	return string(b)
}

// URL renders the HTTP call for the request on view. filterhist is two
// calls; URL gives the histogram on the derived view named derived,
// FilterURL the filter that derives it.
func (r Request) URL(view, derived string) string {
	q := url.Values{}
	q.Set("view", view)
	var path string
	switch r.Kind {
	case "table":
		path = "/api/table"
		q.Set("order", r.Order)
		if r.Extra != "" {
			q.Set("extra", r.Extra)
		}
		q.Set("k", strconv.Itoa(r.K))
	case "histogram", "filterhist":
		path = "/api/histogram"
		if r.Kind == "filterhist" {
			q.Set("view", derived)
		}
		q.Set("col", r.Col)
		if r.Bars > 0 {
			q.Set("bars", strconv.Itoa(r.Bars))
		}
		if r.CDF {
			q.Set("cdf", "1")
		}
		if r.Exact {
			q.Set("exact", "1")
		}
	case "heavyhitters":
		path = "/api/heavyhitters"
		q.Set("col", r.Col)
		q.Set("k", strconv.Itoa(r.K))
		if r.Sampled {
			q.Set("sampled", "1")
		}
	case "heatmap":
		path = "/api/heatmap"
		q.Set("x", r.Col)
		q.Set("y", r.Col2)
	case "meta":
		path = "/api/meta"
	default:
		panic("perfbench: unknown request kind " + r.Kind)
	}
	return path + "?" + q.Encode()
}

// FilterURL is the first call of a filterhist request.
func (r Request) FilterURL(view, derived string) string {
	q := url.Values{}
	q.Set("view", view)
	q.Set("name", derived)
	q.Set("expr", r.Expr)
	return "/api/filter?" + q.Encode()
}

// Column sets the generators draw from (flights core schema).
var (
	numericCols = []string{"DepDelay", "ArrDelay", "TaxiOut", "AirTime", "Distance", "CRSDepTime", "DepTime", "FlightNum"}
	stringCols  = []string{"Origin", "Dest", "OriginState", "DestState", "Carrier"}
)

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

func sign(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return "-"
	}
	return "+"
}

// Explore's columns have similar scan cost within each set.
var (
	exploreDoubles = []string{"DepDelay", "ArrDelay", "TaxiOut", "AirTime", "Distance"}
	exploreStrings = []string{"Origin", "Dest"}
)

// explorePool is the O1–O11 cycle of Figure 4 as HTTP calls, one block
// per variant. The seed changes parameters and order, not the cost of
// the cycle: columns go round-robin from a seeded offset (with five
// variants each double leads every op once), and the cost-bearing
// parameters — O6's filter threshold, which sets the derived view's
// size, and O8's k, which sets its sample size — are seeded
// permutations of fixed sets. Sort directions, the order of O2's other
// keys, k of the sorts and bars are drawn per shape. O4 (quantile
// scroll), O9 (distinct count) and O10 (stacked histogram) have no HTTP
// endpoint and are not sent. O6 appears twice per block: with four
// cheap chart ops and four scan-heavy ops alone, the median would fall
// in the gap between the two groups and jump from seed to seed.
func explorePool(rng *rand.Rand, variants int) []Request {
	var pool []Request
	off := rng.Intn(len(exploreDoubles))
	dbl := func(i int) string { return exploreDoubles[(off+i)%len(exploreDoubles)] }
	str := func(i int) string { return exploreStrings[(off+i)%len(exploreStrings)] }
	thresholds, hhK := rng.Perm(2*variants), rng.Perm(variants)
	filter := func(i int) Request {
		return Request{Class: "O6", Kind: "filterhist", Col: "ArrDelay", Bars: 20 + rng.Intn(81), CDF: true,
			Expr: fmt.Sprintf("DepDelay > %d", 30*thresholds[i]/(2*variants))}
	}
	for v := 0; v < variants; v++ {
		five := []string{sign(rng) + dbl(v)}
		for _, i := range rng.Perm(len(exploreDoubles) - 1) {
			five = append(five, sign(rng)+dbl(v+1+i))
		}
		pool = append(pool,
			Request{Class: "O1", Kind: "table", Order: sign(rng) + dbl(v), Extra: "Carrier,Origin", K: 10 + rng.Intn(31)},
			Request{Class: "O2", Kind: "table", Order: strings.Join(five, ","), K: 10 + rng.Intn(31)},
			Request{Class: "O3", Kind: "table", Order: sign(rng) + str(v), Extra: "Dest,Carrier", K: 10 + rng.Intn(31)},
			Request{Class: "O5", Kind: "histogram", Col: dbl(v + 2), Bars: 20 + rng.Intn(81), CDF: true},
			filter(2*v), filter(2*v+1),
			Request{Class: "O7", Kind: "histogram", Col: str(v + 1), Bars: 10 + rng.Intn(41)},
			Request{Class: "O8", Kind: "heavyhitters", Col: str(v), K: 5 + 25*hhK[v]/variants, Sampled: true},
			Request{Class: "O11", Kind: "heatmap", Col: dbl(v + 3), Col2: dbl(v + 4)},
		)
	}
	return pool
}

// dashboardStrings has four string columns, so that a pool of 8 blocks
// covers them evenly.
var dashboardStrings = []string{"Origin", "Dest", "OriginState", "Carrier"}

// dashboardPool is a panel of cheap charts, table pages and meta calls
// in blocks of 12: two exact and one sampled numeric histogram, one
// string histogram (alternately exact and sampled), two meta calls,
// three table pages and three Misra–Gries heavy hitters. Columns go
// round-robin from a seeded offset, so over n = 96 every column carries
// the same share of each kind and the seed changes parameters and
// order, not the cost of the mix. Exact histograms and heavy hitters are
// cacheable; sampled histograms and table pages always execute.
func dashboardPool(rng *rand.Rand, n int) []Request {
	pool := make([]Request, 0, n)
	num, str := rng.Intn(len(numericCols)), rng.Intn(len(dashboardStrings))
	nextNum := func() string { num++; return numericCols[num%len(numericCols)] }
	nextStr := func() string { str++; return dashboardStrings[str%len(dashboardStrings)] }
	hist := func(col string, exact bool) Request {
		return Request{Class: "dash.hist", Kind: "histogram", Col: col, Bars: 10 * (1 + rng.Intn(5)), Exact: exact}
	}
	for i := 0; len(pool) < n; i++ {
		pool = append(pool,
			hist(nextNum(), true), hist(nextNum(), true), hist(nextNum(), false),
			hist(nextStr(), i%2 == 0),
			Request{Class: "dash.meta", Kind: "meta"}, Request{Class: "dash.meta", Kind: "meta"},
		)
		for j := 0; j < 3; j++ {
			pool = append(pool,
				Request{Class: "dash.table", Kind: "table", Order: sign(rng) + nextNum(), K: 10 * (1 + rng.Intn(3))},
				Request{Class: "dash.hh", Kind: "heavyhitters", Col: nextStr(), K: 5 * (1 + rng.Intn(4))})
		}
	}
	return pool[:n]
}

// growPool is connection B's closed loop over the growing dataset: row
// counts (meta), exact histograms whose counts + missing must equal the
// sealed row count, and Misra–Gries heavy hitters. Each numeric column
// comes with every bar count from 10 to 49, so the sequence cycles
// through more shapes than it runs between two seals and a histogram
// scans the live partitions rather than answering from the cache.
func growPool(rng *rand.Rand) []Request {
	var pool []Request
	for _, col := range growNumeric {
		for _, b := range rng.Perm(40) {
			pool = append(pool, Request{Class: "grow.hist", Kind: "histogram", Col: col, Bars: 10 + b, Exact: true})
		}
	}
	return append(pool,
		Request{Class: "grow.meta", Kind: "meta"},
		Request{Class: "grow.hist", Kind: "histogram", Col: "Carrier", Exact: true},
		Request{Class: "grow.hh", Kind: "heavyhitters", Col: "Origin", K: 5 + rng.Intn(16)},
	)
}

// sequence draws length requests for one client: each step repeats one
// of the client's last recent requests with probability repeat, and
// otherwise takes the next shape of a fresh seeded permutation of pool.
func sequence(rng *rand.Rand, pool []Request, length int, repeat float64, recent int) []Request {
	out := make([]Request, 0, length)
	var perm []int
	for len(out) < length {
		if repeat > 0 && len(out) > 0 && rng.Float64() < repeat {
			back := 1 + rng.Intn(min(recent, len(out)))
			out = append(out, out[len(out)-back])
			continue
		}
		if len(perm) == 0 {
			perm = rng.Perm(len(pool))
		}
		out = append(out, pool[perm[0]])
		perm = perm[1:]
	}
	return out
}

// Traffic is everything a run sends, as a pure function of the
// workload and seed: the warm-up pool (sent once, in order, and
// checked against the reference) and each client's timed sequence
// (cycled if a run outlasts it).
type Traffic struct {
	Pool    []Request
	Clients [][]Request
}

// Digest identifies the traffic: equal digests mean both sides of an
// A/B sent the same requests.
func (t Traffic) Digest() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, r := range t.Pool {
		enc.Encode(r)
	}
	for c, seq := range t.Clients {
		fmt.Fprintf(h, "client %d\n", c)
		for _, r := range seq {
			enc.Encode(r)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sentDigest hashes the requests one client actually sent, in order;
// the binary run and the traced replay of a prefix must agree.
type sentDigest struct {
	n int
	h []byte
}

func (d *sentDigest) add(r Request) {
	s := sha256.Sum256(append(d.h, r.Shape()...))
	d.h = s[:]
	d.n++
}

func (d *sentDigest) String() string { return fmt.Sprintf("%d:%s", d.n, hex.EncodeToString(d.h)[:16]) }
