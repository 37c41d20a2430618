// Command gateload drives provider-shaped load through the scanning
// gateway and reports the latency distribution the SLO gates care about.
// Traffic follows the two laws an edge actually sees: request rate rides
// a diurnal sinusoid (trough to peak and back across the run), and
// document popularity is zipf-skewed — a few hot landing pages dominate
// while a long tail trickles.
//
// By default it hosts the full stack in-process (a synthetic-corpus
// origin behind a gateway.Proxy with admission batching) so the numbers
// include proxying, body pooling, and coalescing. With -replicas N it
// hosts N independent gateway replicas — each with its own matcher,
// proxy, and admitter, all sharing one fleet verdict cache — behind a
// round-robin front, and reports per-replica latency alongside the
// fleet-wide percentiles. Point -target at a running kizzlegate to load
// an external deployment instead; its upstream should serve scannable
// documents under /<n> paths.
//
// Usage:
//
//	gateload [-duration 10s] [-clients 32] [-rps 0] [-zipf 1.5]
//	         [-replicas 1] [-batchdocs 32] [-target http://gate:8080]
//
// The report is one JSON object on stdout; -rps 0 runs closed-loop at
// maximum speed, -rps N paces an open loop whose aggregate rate peaks
// at N mid-run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kizzle"
	"kizzle/gateway"
	"kizzle/internal/servemetrics"
	"kizzle/internal/verdictcache"
	"kizzle/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gateload:", err)
		os.Exit(1)
	}
}

// report is the harness's JSON output.
type report struct {
	Mode       string  `json:"mode"` // "in-process" or "external"
	DurationMS float64 `json:"duration_ms"`
	Clients    int     `json:"clients"`
	Requests   int64   `json:"requests"`
	RPS        float64 `json:"rps"`
	Blocked    int64   `json:"blocked"`
	Errors     int64   `json:"errors"`
	P50US      float64 `json:"p50_us"`
	P90US      float64 `json:"p90_us"`
	P99US      float64 `json:"p99_us"`
	P999US     float64 `json:"p999_us"`
	MaxUS      float64 `json:"max_us"`
	// Admitter and Vetter carry the in-process stack's serving counters
	// (absent in external mode, where /metrics on the gate has them).
	// With -replicas > 1 they aggregate nothing; Fleet carries the
	// per-replica split instead.
	Admitter map[string]any `json:"admitter,omitempty"`
	Vetter   map[string]any `json:"vetter,omitempty"`
	// Replicas, Fleet, and SharedCache describe the in-process fleet:
	// per-replica serving counters plus end-to-end latency summaries, and
	// the shared verdict cache's hit economics.
	Replicas    int              `json:"replicas,omitempty"`
	Fleet       []map[string]any `json:"fleet,omitempty"`
	SharedCache map[string]any   `json:"shared_cache,omitempty"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gateload", flag.ContinueOnError)
	target := fs.String("target", "", "running gate URL to load (empty: in-process stack)")
	duration := fs.Duration("duration", 10*time.Second, "how long to drive load")
	clients := fs.Int("clients", 32, "concurrent clients")
	peak := fs.Float64("rps", 0, "peak aggregate request rate of the diurnal cycle (0 = closed loop)")
	skew := fs.Float64("zipf", 1.5, "zipf exponent of document popularity (hot-key skew)")
	batchDocs := fs.Int("batchdocs", 32, "in-process admission micro-batch size (0 disables)")
	day := fs.Int("day", synth.Date(time.August, 5), "synthetic corpus day")
	replicas := fs.Int("replicas", 1, "in-process gateway replicas behind the round-robin front")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clients < 1 {
		return fmt.Errorf("-clients must be positive")
	}
	if *replicas < 1 {
		return fmt.Errorf("-replicas must be positive")
	}
	if *target != "" && *replicas != 1 {
		return fmt.Errorf("-replicas applies to the in-process stack only")
	}

	rep := report{Clients: *clients}
	var bases []string
	var docCount int
	fleet := []*replica{}
	var cache *verdictcache.Cache

	if *target != "" {
		rep.Mode = "external"
		u, err := url.Parse(*target)
		if err != nil || u.Scheme == "" {
			return fmt.Errorf("bad -target %q", *target)
		}
		bases = []string{*target}
		// The external gate's corpus size is unknown; spread paths over a
		// plausible working set so the zipf tail still exercises it.
		docCount = 512
	} else {
		rep.Mode = "in-process"
		docs, err := corpusDocs(*day)
		if err != nil {
			return err
		}
		docCount = len(docs)
		origin, err := serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			i, err := strconv.Atoi(r.URL.Path[1:])
			if err != nil || i < 0 || i >= len(docs) {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", "text/html")
			io.WriteString(w, docs[i])
		}))
		if err != nil {
			return err
		}
		defer origin.close()
		// One shared verdict cache across the fleet: the cross-replica
		// analogue of the admitter's in-flight coalescing.
		if *replicas > 1 && *batchDocs > 0 {
			cache = verdictcache.New(0)
		}
		// A typed-nil *Cache must not reach the Store interface: an
		// interface holding a nil pointer is not itself nil.
		var store verdictcache.Store
		if cache != nil {
			store = cache
		}
		for i := 0; i < *replicas; i++ {
			r, err := newReplica(*day, origin.url, *batchDocs, store)
			if err != nil {
				return err
			}
			defer r.close()
			fleet = append(fleet, r)
			bases = append(bases, r.front.url.String())
		}
	}

	lats := make([][]time.Duration, *clients)
	var blocked, errs atomic.Int64
	var rr atomic.Int64
	start := time.Now()
	deadline := start.Add(*duration)
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			zipf := rand.NewZipf(rng, *skew, 1, uint64(docCount-1))
			hc := &http.Client{Timeout: 10 * time.Second}
			mine := make([]time.Duration, 0, 1024)
			for {
				now := time.Now()
				if !now.Before(deadline) {
					break
				}
				if *peak > 0 {
					// Open loop: pace to the diurnal rate at this instant.
					// One full cycle spans the run, starting at the trough.
					frac := now.Sub(start).Seconds() / duration.Seconds()
					rate := *peak * (0.55 - 0.45*math.Cos(2*math.Pi*frac))
					if rate < 1 {
						rate = 1
					}
					time.Sleep(time.Duration(float64(*clients) / rate * float64(time.Second)))
				}
				// Round-robin front: successive requests rotate across the
				// replica fleet, the way a connectionless load balancer would.
				base := bases[int(rr.Add(1))%len(bases)]
				t0 := time.Now()
				resp, err := hc.Get(base + "/" + strconv.FormatUint(zipf.Uint64(), 10))
				if err != nil {
					errs.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				mine = append(mine, time.Since(t0))
				if resp.StatusCode == http.StatusForbidden {
					blocked.Add(1)
				} else if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					errs.Add(1)
				}
			}
			lats[c] = mine
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	q := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)))
		if i >= len(all) {
			i = len(all) - 1
		}
		return float64(all[i]) / 1e3
	}
	rep.DurationMS = float64(elapsed) / 1e6
	rep.Requests = int64(len(all))
	rep.RPS = float64(len(all)) / elapsed.Seconds()
	rep.Blocked = blocked.Load()
	rep.Errors = errs.Load()
	rep.P50US, rep.P90US, rep.P99US, rep.P999US = q(0.50), q(0.90), q(0.99), q(0.999)
	rep.MaxUS = q(1)
	if len(fleet) == 1 {
		// Single replica: keep the flat report shape earlier tooling reads.
		if fleet[0].admit != nil {
			rep.Admitter = fleet[0].admit.Metrics()
		}
		rep.Vetter = fleet[0].vetter.Metrics()
	} else if len(fleet) > 1 {
		rep.Replicas = len(fleet)
		for i, r := range fleet {
			entry := map[string]any{
				"replica": i,
				"vetter":  r.vetter.Metrics(),
				"latency": r.lat.Summary(),
			}
			if r.admit != nil {
				entry["admitter"] = r.admit.Metrics()
			}
			rep.Fleet = append(rep.Fleet, entry)
		}
	}
	if cache != nil {
		rep.SharedCache = cache.Metrics()
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// replica is one in-process gateway stack: matcher, vetter, admitter,
// and its loopback front, plus a per-replica latency histogram recorded
// by a middleware in front of the proxy (so the fleet report can show
// replica skew the global percentiles hide).
type replica struct {
	vetter *gateway.Vetter
	admit  *gateway.Admitter
	front  *server
	lat    *servemetrics.Hist
}

func (r *replica) close() {
	r.front.close()
	if r.admit != nil {
		r.admit.Close()
	}
}

// newReplica builds one gateway replica over the shared origin. Each
// replica compiles its own matcher from the day's trained signatures
// (the fleet analogue of N kizzlegate processes deploying the same
// version) and, when store is non-nil, plugs into the fleet-shared
// verdict cache.
func newReplica(day int, origin *url.URL, batchDocs int, store verdictcache.Store) (*replica, error) {
	sigs, err := daySignatures(day)
	if err != nil {
		return nil, err
	}
	m, err := kizzle.NewMatcher(sigs)
	if err != nil {
		return nil, err
	}
	r := &replica{vetter: gateway.NewVetter(m), lat: &servemetrics.Hist{}}
	r.vetter.SetVersion(1)
	proxy := gateway.NewProxy(origin, r.vetter)
	if batchDocs > 0 {
		r.admit = gateway.NewAdmitter(r.vetter, batchDocs, 0)
		if store != nil {
			r.admit.UseSharedStore(store)
		}
		proxy.UseAdmitter(r.admit)
	}
	r.front, err = serve(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t0 := time.Now()
		proxy.ServeHTTP(w, req)
		r.lat.Observe(time.Since(t0))
	}))
	if err != nil {
		if r.admit != nil {
			r.admit.Close()
		}
		return nil, err
	}
	return r, nil
}

// trained memoizes one day's training run: with -replicas N every
// replica compiles its own matcher, but the signature set behind them is
// trained once — exactly how a real fleet deploys one published version.
var trained struct {
	sync.Mutex
	day  int
	docs []string
	sigs []kizzle.Signature
}

// train compiles a real signature set on one synthetic day and returns
// the day's documents (kit landings and benign pages alike) with the
// trained signatures — the same stack the gateway benchmarks serve.
func train(day int) ([]string, []kizzle.Signature, error) {
	trained.Lock()
	defer trained.Unlock()
	if trained.docs != nil && trained.day == day {
		return trained.docs, trained.sigs, nil
	}
	c := kizzle.New(kizzle.WithSignatureSlack(2))
	for _, fam := range synth.Kits() {
		c.AddKnown(fam.String(), synth.Payload(fam, day-1))
	}
	cfg := synth.DefaultConfig()
	cfg.BenignPerDay = 60
	stream, err := synth.NewStream(cfg)
	if err != nil {
		return nil, nil, err
	}
	var batch []kizzle.Sample
	var docs []string
	for _, s := range stream.Day(day) {
		batch = append(batch, kizzle.Sample{ID: s.ID, Content: s.Content})
		docs = append(docs, s.Content)
	}
	res, err := c.Process(batch)
	if err != nil {
		return nil, nil, err
	}
	trained.day, trained.docs, trained.sigs = day, docs, res.Signatures
	return docs, res.Signatures, nil
}

func corpusDocs(day int) ([]string, error) {
	docs, _, err := train(day)
	return docs, err
}

func daySignatures(day int) ([]kizzle.Signature, error) {
	_, sigs, err := train(day)
	return sigs, err
}

// server is a loopback HTTP listener serving one handler.
type server struct {
	url *url.URL
	srv *http.Server
	ln  net.Listener
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv: &http.Server{Handler: h},
		ln:  ln,
	}
	s.url, _ = url.Parse("http://" + ln.Addr().String())
	go s.srv.Serve(ln)
	return s, nil
}

func (s *server) close() {
	s.srv.Close()
	s.ln.Close()
}
