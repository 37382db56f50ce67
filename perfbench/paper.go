package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/conzone/conzone/internal/config"
	"github.com/conzone/conzone/internal/experiments"
	"github.com/conzone/conzone/internal/refdata"
)

// paper: regenerate Table II, Figs. 6a/6b/7/8, the ablations and the
// emulator comparison with experiments.Default() on config.Paper(). The
// experiments fix their own seeds (they reproduce the paper), so -seed
// does not change this workload's inputs.

// regen is one regeneration's checkable output.
type regen struct {
	checks []string // every figure's claim verdict lines
	text   string   // every table row, for the digest
}

// setupPaper builds the configuration and validates it, which constructs
// each device model the regeneration uses (ConZone, Legacy, FEMU,
// ConfZNS) once.
func setupPaper() (config.DeviceConfig, error) {
	cfg := config.Paper()
	return cfg, cfg.Validate()
}

// regenerate runs every experiment once.
func regenerate(cfg config.DeviceConfig, opt experiments.Options) (regen, error) {
	var g regen
	var b strings.Builder
	t2, err := experiments.RunTable2(cfg)
	if err != nil {
		return g, err
	}
	if err := experiments.VerifyTable2(t2); err != nil {
		g.checks = append(g.checks, "[table2] "+err.Error()+" OFF")
	} else {
		g.checks = append(g.checks, "[table2] timing model matches Table II OK")
	}
	fmt.Fprintf(&b, "%+v\n", t2)
	f6a, err := experiments.RunFig6a(cfg, opt)
	if err != nil {
		return g, err
	}
	fmt.Fprintf(&b, "%+v\n", f6a.Rows)
	f6b, err := experiments.RunFig6b(cfg, opt)
	if err != nil {
		return g, err
	}
	fmt.Fprintf(&b, "%v %v %v %v %v %v\n", f6b.ConflictBW, f6b.ConflictWAF, f6b.ConflictEvictions,
		f6b.NoConflictBW, f6b.NoConflictWAF, f6b.NoConflictEvictions)
	f7, err := experiments.RunFig7(cfg, opt)
	if err != nil {
		return g, err
	}
	fmt.Fprintf(&b, "%+v\n", f7.Points)
	f8, err := experiments.RunFig8(cfg, opt)
	if err != nil {
		return g, err
	}
	fmt.Fprintf(&b, "%+v\n", f8.Points)
	for _, c := range [][]string{f6a.Checks, f6b.Checks, f7.Checks, f8.Checks} {
		g.checks = append(g.checks, c...)
	}
	for _, run := range []func(config.DeviceConfig, experiments.Options) (experiments.AblationResult, error){
		experiments.RunAblationChannelBW,
		experiments.RunAblationDedicatedBuffers,
		experiments.RunAblationCombine,
		experiments.RunAblationZoneAggregation,
		experiments.RunAblationL2PLog,
	} {
		a, err := run(cfg, opt)
		if err != nil {
			return g, err
		}
		keys := make([]string, 0, len(a.Metrics))
		for k := range a.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "%s:", a.Name)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%v", k, a.Metrics[k])
		}
		b.WriteByte('\n')
	}
	rows, err := experiments.RunEmulatorComparison(cfg, opt)
	if err != nil {
		return g, err
	}
	fmt.Fprintf(&b, "%+v\n", rows)
	g.text = b.String()
	return g, nil
}

// digest is sha256 over the tables and the claim lines.
func (g regen) digest() string {
	h := sha256.New()
	h.Write([]byte(g.text))
	for _, c := range g.checks {
		h.Write([]byte(c))
	}
	return hex.EncodeToString(h.Sum(nil))
}

var (
	claimRe = regexp.MustCompile(`paper=(-?[0-9.]+) measured=(-?[0-9.]+) \(±([0-9.]+)\)`)
	bandRe  = regexp.MustCompile(`measured=([^ ]+) \(band \[([^,]+),([^\]]+)\]\)`)
)

// paperErr is the mean |measured - paper| / tolerance over the refdata
// claims (Figs. 6a/6b/7/8 plus the Fig. 7 hybrid-tail band). It fails when
// a claim is missing from the regeneration's output.
func paperErr(checks []string) (float64, int, error) {
	var ids []string
	for _, set := range [][]refdata.Claim{refdata.Fig6a(), refdata.Fig6b(), refdata.Fig7(), refdata.Fig8()} {
		for _, c := range set {
			ids = append(ids, c.ID)
		}
	}
	ids = append(ids, "fig7-hybrid-tail")
	var sum float64
	for _, id := range ids {
		line := ""
		for _, c := range checks {
			if strings.HasPrefix(c, "["+id+"]") {
				line = c
				break
			}
		}
		if line == "" {
			return 0, 0, fmt.Errorf("claim %s missing from the regeneration", id)
		}
		e, err := claimErr(line)
		if err != nil {
			return 0, 0, fmt.Errorf("claim %s: %w", id, err)
		}
		sum += e
	}
	return sum / float64(len(ids)), len(ids), nil
}

// claimErr parses one verdict line into |measured - paper| / tolerance.
func claimErr(line string) (float64, error) {
	if m := claimRe.FindStringSubmatch(line); m != nil {
		paper, _ := strconv.ParseFloat(m[1], 64)
		meas, _ := strconv.ParseFloat(m[2], 64)
		tol, _ := strconv.ParseFloat(m[3], 64)
		if tol <= 0 {
			return 0, fmt.Errorf("non-positive tolerance in %q", line)
		}
		return math.Abs(meas-paper) / tol, nil
	}
	if m := bandRe.FindStringSubmatch(line); m != nil {
		var d [3]time.Duration
		for i := range d {
			v, err := time.ParseDuration(m[i+1])
			if err != nil {
				return 0, err
			}
			d[i] = v
		}
		mid, half := (d[1]+d[2])/2, (d[2]-d[1])/2
		if half <= 0 {
			return 0, fmt.Errorf("empty band in %q", line)
		}
		return math.Abs(float64(d[0]-mid)) / float64(half), nil
	}
	return 0, fmt.Errorf("unparsable verdict %q", line)
}

func runPaper(opt options, rep *report) error {
	cfg, setup, err := timeSetup(25, setupPaper)
	if err != nil {
		return err
	}
	rep.set("setup_s", "s", setup)
	eopt := experiments.Default()
	if opt.short {
		eopt = experiments.Quick()
	}

	var prof *profiler
	if opt.trace {
		if prof, err = startProfile(opt.outDir, opt.workload); err != nil {
			return err
		}
	}
	heap := startMeasuredHeap()
	var secs, heaps []float64
	var first regen
	digest := ""
	unstable := 0 // regenerations whose output differs from the first
	began := time.Now()
	for len(secs) == 0 || time.Since(began).Seconds() < opt.seconds {
		runtime.GC() // independent samples: no garbage carried over (see runFleetOnce)
		heap.lap()
		start := time.Now()
		g, err := regenerate(cfg, eopt)
		if err != nil {
			return err
		}
		secs = append(secs, time.Since(start).Seconds())
		heaps = append(heaps, heap.lap())
		d := g.digest()
		if digest == "" {
			first, digest = g, d
		}
		if d != digest {
			unstable++
		}
		for _, c := range g.checks {
			rep.attempted++
			if !strings.HasSuffix(c, " OK") {
				rep.failed++
			}
		}
	}
	heap.stop()
	rep.set("heap_peak_mib", "MiB", median(heaps))
	if prof != nil {
		if err := prof.stop(); err != nil {
			return err
		}
	}
	rep.digest = digest
	// Not an output check: the regenerated figures stay within the paper's
	// claims, but they are not bit-identical between identical runs while
	// the Legacy model charges page reads in map iteration order
	// (legacy.Device.Read). The count makes that visible until it is fixed.
	rep.set("experiments.unstable_regens", "count", float64(unstable))
	if unstable > 0 {
		rep.note("NOT DETERMINISTIC: %d of %d regenerations differ from the first (digest above is the first's)", unstable, len(secs))
	}
	for _, c := range first.checks {
		rep.check(strings.HasSuffix(c, " OK"), "claim not reproduced: %s", c)
	}
	pe, n, err := paperErr(first.checks)
	if err != nil {
		rep.check(false, "%v", err)
	} else {
		rep.set("paper_err", "1", pe)
		rep.note("paper_err over %d refdata claims; %d verdict lines per regeneration", n, len(first.checks))
	}
	regenS := median(secs)
	rep.set("paper_regen_s", "s", regenS)
	rep.set("work_per_s", "1/s", 1/regenS)
	rep.note("%d regenerations in %.2fs", len(secs), time.Since(began).Seconds())

	if !opt.trace {
		return nil
	}
	return foldProfile(rep, opt.outDir+"/"+opt.workload+".cpu.pprof")
}
