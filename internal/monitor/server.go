package monitor

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/telemetry"
)

// Server exposes the control room over HTTP:
//
//	GET /                 live HTML dashboard (auto-refreshing)
//	GET /healthz          liveness JSON: clock, tracked runs, firing alerts
//	GET /metrics          the telemetry registry in Prometheus text format
//	GET /api/alerts       the alert history as JSON
//	GET /api/{name}       a report as JSON: status (the full Status
//	                      snapshot), slo (the SLO report), and whatever
//	                      is attached (see Attach); 404 otherwise
//	GET /debug/pprof/     Go profiling endpoints (when EnablePprof)
//
// Handlers read monitor snapshots under its lock and never touch the
// simulation engine, so the server can run on wall-clock goroutines
// while a campaign replays. All handlers are httptest-able via Handler.
type Server struct {
	mon     *Monitor
	reg     *telemetry.Registry
	reports map[string]func() any
	runtime *telemetry.RuntimeCollector
	pprofOn bool
}

// Connection timeouts for Serve. A client that never finishes its
// request headers is dropped after readHeaderTimeout, an idle keep-alive
// connection after idleTimeout. There is deliberately no write timeout:
// /debug/pprof/profile streams a 30 s CPU capture by default.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// NewServer builds a Server for a monitor. reg (may be nil) backs
// /metrics and receives the Go runtime gauges, collected on every
// scrape — the control room watches its own serving process too.
func NewServer(mon *Monitor, reg *telemetry.Registry) *Server {
	s := &Server{mon: mon, reg: reg, reports: map[string]func() any{}, runtime: telemetry.NewRuntimeCollector(reg)}
	s.Attach("status", func() any { return mon.Status() })
	s.Attach("slo", func() any { return mon.Report() })
	return s
}

// Attach serves fn's snapshot as JSON at GET /api/{name}, and the
// dashboard shows that report's panel once the endpoint answers. The
// server stays decoupled from the reporting packages: fn is typically a
// closure over a live snapshot (Harvester.Status, Profiler.Report) or a
// ReadReport of the stats database, and must be safe to call on the
// HTTP goroutine while the simulation runs. Call before serving.
func (s *Server) Attach(name string, fn func() any) { s.reports[name] = fn }

// EnablePprof mounts net/http/pprof under /debug/pprof/ on the next
// Handler call — opt-in, because the profiler exposes stacks and heap
// contents an operator console should not serve by default.
func (s *Server) EnablePprof() { s.pprofOn = true }

// Handler returns the control room's routing mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleDashboard)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/alerts", s.handleAlerts)
	mux.HandleFunc("GET /api/{name}", s.handleReport)
	if s.pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Serve accepts control-room connections on ln until it fails, under
// the connection timeouts above, so a client that stalls mid-request
// cannot hold a connection forever.
func (s *Server) Serve(ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	return hs.Serve(ln)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.mon.Status()
	writeJSON(w, map[string]any{
		"status":        "ok",
		"sim_time":      st.Now,
		"day":           st.Day,
		"done":          st.Done,
		"runs_tracked":  len(st.Runs),
		"alerts_firing": st.Summary.AlertsFiring,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		http.Error(w, "no metrics registry configured", http.StatusNotFound)
		return
	}
	s.runtime.Collect()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.reg.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	alerts := s.mon.Alerts()
	if r.URL.Query().Get("state") == StateFiring {
		alerts = s.mon.FiringAlerts()
	}
	writeJSON(w, alerts)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	fn, ok := s.reports[name]
	if !ok {
		http.Error(w, "no "+name+" report attached", http.StatusNotFound)
		return
	}
	writeJSON(w, fn())
}

func (s *Server) handleDashboard(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, dashboardHTML)
}

// dashboardHTML is the minimal live dashboard: plain JS polling
// /api/status, no external assets, so it renders from an air-gapped
// operator console.
const dashboardHTML = `<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>forecast factory — control room</title>
<style>
body { font: 13px/1.5 monospace; margin: 1.5em; background: #111; color: #ddd; }
h1 { font-size: 16px; } h2 { font-size: 14px; margin: 1em 0 .3em; }
table { border-collapse: collapse; }
td, th { padding: 2px 10px; border-bottom: 1px solid #333; text-align: left; }
.ok { color: #7c7; } .warn { color: #fc6; } .crit { color: #f66; } .dim { color: #888; }
.bar { display: inline-block; height: 9px; background: #4a8; vertical-align: middle; }
.asof { font-weight: normal; font-size: 11px; }
</style>
</head>
<body>
<h1>forecast factory — control room</h1>
<div id="summary" class="dim">loading…</div>
<h2>alerts</h2><table id="alerts"></table>
<h2>runs</h2><table id="runs"></table>
<h2>nodes</h2><table id="nodes"></table>
<div id="util-panel" style="display:none">
<h2>utilization <span id="util-asof" class="asof dim"></span> <span id="util-legend" class="dim"></span></h2>
<pre id="util-heatmap" style="line-height:1.1"></pre>
<table id="util-windows"></table>
</div>
<div id="harvest-panel" style="display:none">
<h2>harvest <span id="harvest-asof" class="asof dim"></span></h2>
<div id="harvest-summary" class="dim"></div>
<table id="harvest-quarantine"></table>
</div>
<div id="blame-panel" style="display:none">
<h2>lateness blame <span id="blame-asof" class="asof dim"></span> <span id="blame-legend" class="dim"></span></h2>
<table id="blame-days"></table>
</div>
<div id="spc-panel" style="display:none">
<h2>process control <span id="spc-asof" class="asof dim"></span></h2>
<table id="spc-series"></table>
<table id="spc-changepoints"></table>
</div>
<div id="engine-panel" style="display:none">
<h2>engine observatory <span id="engine-asof" class="asof dim"></span></h2>
<div id="engine-summary" class="dim"></div>
<table id="engine-labels"></table>
<pre id="engine-depth" style="line-height:1.1"></pre>
</div>
<div id="serving-panel" style="display:none">
<h2>product serving <span id="serving-asof" class="asof dim"></span></h2>
<div id="serving-summary" class="dim"></div>
<table id="serving-products"></table>
</div>
<script>
// One shared refresh interval drives every panel, and each panel stamps
// the sim time of the pass that produced its data — a panel whose fetch
// failed is marked stale instead of silently showing mixed-age data.
const REFRESH_MS = 2000;
function hhmm(s) {
  const sign = s < 0 ? "-" : ""; s = Math.abs(s);
  return sign + Math.floor(s/3600) + ":" + String(Math.floor(s%3600/60)).padStart(2, "0");
}
function cls(state) {
  return {late: "crit", "on-time": "ok", running: "", dropped: "warn",
          critical: "crit", warning: "warn", info: "dim"}[state] || "";
}
const SHADES = [" ", "░", "▒", "▓", "█"];
// shade maps a fraction to a block glyph; anything above 0 shows.
function shade(v) {
  v = Math.max(0, Math.min(1, v));
  const k = Math.round(v * (SHADES.length - 1));
  return SHADES[v > 0 && k === 0 ? 1 : k];
}
// panel polls one report endpoint: when it answers, the panel is shown,
// rendered, and stamped with the sim time of this pass; a failed fetch
// (or a pass without a status clock) marks it stale. An endpoint that
// 404s (nothing attached) stays hidden.
async function panel(path, id, simNow, simDay, render) {
  let fresh = false;
  try {
    const resp = await fetch(path);
    if (!resp.ok) return;
    const data = await resp.json();
    document.getElementById(id + "-panel").style.display = "";
    render(data);
    fresh = simNow !== null;
  } catch (e) {}
  const el = document.getElementById(id + "-asof");
  el.textContent = fresh ? "· last updated day " + simDay + " t=" + hhmm(simNow) : "· STALE (fetch failed)";
  el.className = fresh ? "asof dim" : "asof crit";
}
async function refresh() {
  let simNow = null, simDay = null;
  try {
    const st = await (await fetch("api/status")).json();
    simNow = st.now; simDay = st.day;
    const sm = st.summary;
    document.getElementById("summary").textContent =
      "sim day " + st.day + " (t=" + hhmm(st.now) + ")" + (st.done ? " — campaign done" : "") +
      " · running " + sm.running + " · on-time " + sm.on_time + " · late " + sm.late +
      " · predicted-late " + sm.predicted_late + " · attainment " +
      (100*sm.attainment).toFixed(1) + "% · alerts firing " + sm.alerts_firing;
    const rows = (hdr, items, render, limit) => hdr +
      items.slice(0, limit || 40).map(render).join("");
    document.getElementById("alerts").innerHTML = rows(
      "<tr><th>sev</th><th>rule</th><th>subject</th><th>message</th><th>fired</th></tr>",
      st.firing.slice().reverse(),
      a => '<tr><td class="' + cls(a.severity) + '">' + a.severity + (a.predicted ? " (predicted)" : "") +
           "</td><td>" + a.rule + "</td><td>" + (a.forecast || "-") +
           "</td><td>" + a.message + "</td><td>" + hhmm(a.fired_at) + "</td></tr>");
    document.getElementById("runs").innerHTML = rows(
      "<tr><th>forecast</th><th>day</th><th>node</th><th>state</th><th>progress</th>" +
      "<th>eta</th><th>deadline</th><th>budget</th></tr>",
      st.runs,
      r => '<tr><td>' + r.forecast + "</td><td>" + r.day + "</td><td>" + r.node +
           '</td><td class="' + cls(r.state) + '">' + r.state + (r.predicted_miss ? " ⚠" : "") +
           '</td><td><span class="bar" style="width:' + Math.round(60*r.progress) + 'px"></span> ' +
           Math.round(100*r.progress) + "%</td><td>" + (r.eta ? hhmm(r.eta) : "—") +
           "</td><td>" + hhmm(r.deadline) + '</td><td class="' + (r.budget < 0 ? "crit" : "ok") + '">' +
           hhmm(r.budget) + "</td></tr>");
    document.getElementById("nodes").innerHTML = rows(
      "<tr><th>node</th><th>cpus</th><th>utilization</th></tr>",
      st.nodes || [],
      n => "<tr><td>" + n.name + "</td><td>" + n.cpus +
           '</td><td><span class="bar" style="width:' + Math.round(100*n.utilization) +
           'px"></span> ' + (100*n.utilization).toFixed(1) + "%</td></tr>");
  } catch (e) {
    document.getElementById("summary").textContent = "status fetch failed: " + e;
  }
  await panel("api/harvest", "harvest", simNow, simDay, h => {
    const lp = h.last_pass || {};
    document.getElementById("harvest-summary").textContent =
      "pass " + h.passes + " @ t=" + hhmm(lp.at || 0) +
      " · scanned " + (lp.scanned || 0) + " · ingested " + (lp.ingested || 0) +
      " · updated " + (lp.updated || 0) + " · watermark hits " + (lp.watermark_hits || 0) +
      " · lag " + hhmm(h.watermark_lag_seconds || 0) +
      " · totals: " + h.totals.ingested + " ingested / " +
      h.totals.quarantined + " quarantined · schema v" + h.schema_version;
    const q = h.quarantine || [];
    document.getElementById("harvest-quarantine").innerHTML = q.length === 0 ? "" :
      "<tr><th>quarantined file</th><th>error</th></tr>" +
      q.slice(0, 20).map(e =>
        '<tr><td class="warn">' + e.path + '</td><td class="dim">' + e.error + "</td></tr>").join("");
  });
  await panel("api/utilization", "util", simNow, simDay, u => {
    const grid = u.grid || {};
    const names = grid.nodes || [];
    const width = Math.max(...names.map(n => n.length), 4);
    const lines = names.map((name, i) => {
      const row = (grid.utilization || [])[i] || [];
      return name.padEnd(width) + " |" + row.slice(-120).map(v => shade(v)).join("") + "|";
    });
    document.getElementById("util-heatmap").textContent = lines.join("\n");
    document.getElementById("util-legend").textContent =
      "· per-node utilization, " + hhmm(grid.step || 0) + " per column · " +
      "scale " + SHADES.map((s, i) => s + "=" + (i / (SHADES.length - 1)).toFixed(2)).join(" ");
    const ws = (u.windows || []).filter(w => w.kind === "contention").slice(-10).reverse();
    document.getElementById("util-windows").innerHTML = ws.length === 0 ? "" :
      "<tr><th>contention window</th><th>from</th><th>to</th><th>peak k</th><th>mean share</th></tr>" +
      ws.map(w =>
        '<tr><td class="warn">' + w.node + "</td><td>" + hhmm(w.start) + "</td><td>" + hhmm(w.end) +
        "</td><td>" + (w.peak_active || "-") + "</td><td>" +
        (w.mean_share ? w.mean_share.toFixed(2) : "-") + "</td></tr>").join("");
  });
  await panel("api/forensics", "blame", simNow, simDay, f => {
    const days = f.days || [];
    const comps = ["queue_wait", "contention", "failure", "upstream_wait", "estimate_error"];
    const colors = {queue_wait: "#48a", contention: "#a84", failure: "#a44",
                    upstream_wait: "#848", estimate_error: "#666"};
    document.getElementById("blame-legend").innerHTML = "· " + comps.map(c =>
      '<span class="bar" style="width:9px;background:' + colors[c] + '"></span> ' + c).join(" ");
    const maxLate = Math.max(1, ...days.map(d => d.lateness));
    document.getElementById("blame-days").innerHTML =
      "<tr><th>day</th><th>runs</th><th>lateness</th><th>dominant</th><th>blame mix</th></tr>" +
      days.slice(-40).map(d => {
        const total = comps.reduce((s, c) => s + ((d.components || {})[c] || 0), 0);
        const width = Math.round(300 * d.lateness / maxLate);
        const bar = total <= 0 ? "" : comps.map(c => {
          const w = Math.round(width * ((d.components || {})[c] || 0) / total);
          return w <= 0 ? "" :
            '<span class="bar" style="width:' + w + 'px;background:' + colors[c] + '"></span>';
        }).join("");
        return "<tr><td>" + d.day + "</td><td>" + d.runs + "</td><td>" + hhmm(d.lateness) +
               "</td><td>" + d.dominant + "</td><td>" + bar + "</td></tr>";
      }).join("");
  });
  await panel("api/spc", "spc", simNow, simDay, rep => {
    const series = rep.series || [];
    document.getElementById("spc-series").innerHTML =
      "<tr><th>kind</th><th>subject</th><th>n</th><th>center</th><th>sigma</th>" +
      "<th>viol</th><th>state</th><th>recent (· ok, ! violation, : learning)</th></tr>" +
      series.map(s => {
        const pts = s.points || [];
        const trace = pts.slice(-60).map(p =>
          p.learning ? ":" : (p.out ? "!" : "·")).join("");
        const state = pts.some(p => !p.learning)
          ? (s.out ? '<span class="crit">OUT</span>' : '<span class="ok">in</span>')
          : '<span class="dim">learning</span>';
        return "<tr><td>" + s.kind + "</td><td>" + s.subject + "</td><td>" + pts.length +
               "</td><td>" + s.center.toPrecision(4) + "</td><td>" + s.sigma.toPrecision(4) +
               "</td><td>" + (s.violations || 0) + "</td><td>" + state +
               "</td><td><code>" + trace + "</code></td></tr>";
      }).join("");
    const cps = series.flatMap(s =>
      (s.changepoints || []).map(c => ({kind: s.kind, subject: s.subject, ...c})));
    cps.sort((a, b) => a.detected_day - b.detected_day);
    document.getElementById("spc-changepoints").innerHTML = cps.length === 0 ? "" :
      "<tr><th>changepoint</th><th>day</th><th>detected</th><th>cause</th>" +
      "<th>before</th><th>after</th></tr>" +
      cps.slice(-20).map(c =>
        '<tr><td class="warn">' + c.kind + "/" + c.subject + "</td><td>" + c.day +
        "</td><td>" + c.detected_day + "</td><td>" + c.cause +
        "</td><td>" + c.before.toPrecision(4) + "</td><td>" + c.after.toPrecision(4) +
        "</td></tr>").join("");
  });
  await panel("api/engine", "engine", simNow, simDay, rep => {
    const labels = rep.labels || [];
    const fmtNs = ns => ns < 1e3 ? ns + "ns" : ns < 1e6 ? (ns/1e3).toFixed(1) + "µs"
                      : ns < 1e9 ? (ns/1e6).toFixed(2) + "ms" : (ns/1e9).toFixed(3) + "s";
    // Handler timing is sampled in the kernel: extrapolate each
    // label's wall-clock as (sampled mean) x (total fires).
    const wallEst = l => l.wall_sampled > 0 ? l.wall_ns/l.wall_sampled*l.fired : 0;
    const totalWall = labels.reduce((s, l) => s + wallEst(l), 0);
    const totalFired = labels.reduce((s, l) => s + l.fired, 0);
    const depth = rep.depth || [];
    const peak = Math.max(0, ...depth.map(p => p.depth));
    document.getElementById("engine-summary").textContent =
      totalFired + " events fired · " + labels.reduce((s, l) => s + l.cancelled, 0) +
      " cancelled · ~" + fmtNs(totalWall) + " handler wall-clock (sampled) · peak queue depth " + peak;
    document.getElementById("engine-labels").innerHTML =
      "<tr><th>label</th><th>wall%</th><th>wall</th><th>fired</th><th>cancelled</th>" +
      "<th>mean</th><th>max</th><th>dwell(mean)</th></tr>" +
      labels.slice(0, 10).map(l => {
        const est = wallEst(l);
        const share = totalWall > 0 ? (100*est/totalWall).toFixed(1) : "0.0";
        const mean = l.wall_sampled > 0 ? l.wall_ns/l.wall_sampled : 0;
        const dwell = l.fired > 0 ? l.dwell_sum_s/l.fired : 0;
        return "<tr><td>" + l.label + '</td><td><span class="bar" style="width:' +
          Math.round(share) + 'px"></span> ' + share + "%</td><td>" + fmtNs(est) +
          "</td><td>" + l.fired + "</td><td>" + l.cancelled + "</td><td>" + fmtNs(mean) +
          "</td><td>" + fmtNs(l.wall_max_ns) + "</td><td>" + hhmm(dwell) + "</td></tr>";
      }).join("");
    const cells = depth.slice(-120).map(p => shade(peak > 0 ? p.depth / peak : 0)).join("");
    document.getElementById("engine-depth").textContent =
      depth.length === 0 ? "" : "queue depth |" + cells + "| peak " + peak;
  });
  await panel("api/serving", "serving", simNow, simDay, sv => {
    document.getElementById("serving-summary").textContent =
      sv.requests + " requests · hit " + (100*(sv.hit_rate || 0)).toFixed(1) + "%" +
      " · coalesced " + sv.coalesced + " · renders " + sv.renders +
      " (" + sv.active_renders + " active, " + sv.queued_renders + " queued)" +
      " · shed " + sv.shed + " (" + (100*(sv.shed_fraction || 0)).toFixed(2) + "%)" +
      " · stale served " + sv.served_stale +
      " · staleness p50 " + hhmm(sv.staleness_p50_seconds || 0) +
      " p99 " + hhmm(sv.staleness_p99_seconds || 0);
    const prods = (sv.products || []).slice().sort((a, b) => b.requests - a.requests);
    document.getElementById("serving-products").innerHTML =
      "<tr><th>product</th><th>forecast</th><th>requests</th><th>hit%</th>" +
      "<th>renders</th><th>shed</th><th>rate/h</th><th>cycle</th></tr>" +
      prods.slice(0, 12).map(p => {
        const hit = p.requests > 0 ? (100*p.hits/p.requests).toFixed(1) : "0.0";
        return "<tr><td>" + p.product + (p.hot ? ' <span class="warn">HOT</span>' : "") +
          "</td><td>" + p.forecast + "</td><td>" + p.requests + "</td><td>" + hit +
          "%</td><td>" + p.renders + "</td><td>" + (p.shed || 0) +
          "</td><td>" + Math.round(p.demand_rate || 0) + "</td><td>" + p.cycle + "</td></tr>";
      }).join("");
  });
}
refresh();
setInterval(refresh, REFRESH_MS);
</script>
</body>
</html>
`
