"""The watch dashboard: one self-contained HTML page + a terminal rendering.

``render_dashboard_html`` returns a single file with inline CSS/JS and no
external dependencies (the watch server must work on an air-gapped test
bench). The page polls ``/metrics.json`` once a second and tails ``/events``
over SSE; everything it shows is derived in :mod:`repro.obs.rollup`.

``render_text_dashboard`` renders the same metrics payload for a terminal —
the ``watch --once`` path and the tests use it, and it reuses the ascii
charts from :mod:`repro.analysis.figures` embedded in the payload.

Colors follow the outcome *class*, fixed per outcome name (never assigned by
rank, so a filtered distribution keeps its hues), with the count and share
always printed beside each bar — color never carries the meaning alone.
Light and dark values are separate steps of the same hues, selected for
their surfaces, and the bars render in the fixed :data:`OUTCOME_ORDER` —
the ordering was chosen so every adjacent pair clears the colorblind and
normal-vision separation gates in both modes (a count-sorted order would
make adjacency dynamic and unverifiable, and would shuffle rows mid-run).
"""

from __future__ import annotations

import json

#: Fixed outcome-class → hue assignment (light, dark). ``correct`` wears the
#: mode-invariant green; the failure classes take categorical slots in a
#: fixed assignment keyed by outcome name. Unknown outcome names fall back
#: to violet so a new classifier class is visible, not invisible.
OUTCOME_COLORS = {
    "correct": ("#008300", "#008300"),
    "panic_park": ("#2a78d6", "#3987e5"),
    "cpu_park": ("#eb6834", "#d95926"),
    "invalid_arguments": ("#1baf7a", "#199e70"),
    "inconsistent_state": ("#eda100", "#c98500"),
    "silent_failure": ("#e34948", "#e66767"),
    # Infrastructure verdicts (quarantined specs): harness greys, visually
    # apart from every SUT-behaviour hue — they mean "no answer obtained",
    # not a paper outcome class.
    "infra_timeout": ("#6b6a64", "#9a9891"),
    "infra_crash": ("#3d3c38", "#c6c4bb"),
}

#: Fixed display order of the outcome bars (validated adjacent-pair
#: separation in both modes); outcomes not listed here append at the end.
#: The infra verdicts sit last: rare by design, and harness-grey between
#: two saturated hues keeps the adjacency separation comfortable.
OUTCOME_ORDER = (
    "correct",
    "silent_failure",
    "panic_park",
    "cpu_park",
    "invalid_arguments",
    "inconsistent_state",
    "infra_timeout",
    "infra_crash",
)

_FALLBACK_COLOR = ("#4a3aa7", "#9085e9")

_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>__TITLE__</title>
<style>
  :root {
    color-scheme: light dark;
    --surface-1: #fcfcfb; --page: #f9f9f7;
    --ink-1: #0b0b0b; --ink-2: #52514e; --ink-muted: #898781;
    --grid: #e1e0d9; --baseline: #c3c2b7;
    --border: rgba(11, 11, 11, 0.10);
    --series-1: #2a78d6;
    --good: #0ca30c; --critical: #d03b3b;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      --surface-1: #1a1a19; --page: #0d0d0d;
      --ink-1: #ffffff; --ink-2: #c3c2b7; --ink-muted: #898781;
      --grid: #2c2c2a; --baseline: #383835;
      --border: rgba(255, 255, 255, 0.10);
      --series-1: #3987e5;
    }
  }
  * { box-sizing: border-box; }
  body {
    margin: 0; padding: 20px; background: var(--page); color: var(--ink-1);
    font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
  }
  h1 { font-size: 18px; font-weight: 600; margin: 0 0 4px; }
  .sub { color: var(--ink-2); margin: 0 0 16px; }
  .grid { display: grid; gap: 12px;
          grid-template-columns: repeat(auto-fit, minmax(300px, 1fr)); }
  .card {
    background: var(--surface-1); border: 1px solid var(--border);
    border-radius: 8px; padding: 14px 16px;
  }
  .card h2 {
    font-size: 12px; font-weight: 600; letter-spacing: 0.04em;
    text-transform: uppercase; color: var(--ink-muted); margin: 0 0 10px;
  }
  .tiles { display: grid; grid-template-columns: repeat(4, 1fr); gap: 12px; }
  .tile .v { font-size: 26px; font-weight: 600; }
  .tile .l { color: var(--ink-2); font-size: 12px; }
  .bar-row { display: grid; grid-template-columns: 140px 1fr 110px;
             gap: 8px; align-items: center; margin: 6px 0; }
  .bar-label { color: var(--ink-2); overflow: hidden;
               text-overflow: ellipsis; white-space: nowrap; }
  .bar-track { background: none; border-left: 2px solid var(--baseline);
               height: 14px; }
  .bar-fill { height: 100%; border-radius: 0 4px 4px 0; min-width: 2px; }
  .bar-value { color: var(--ink-1); text-align: right;
               font-variant-numeric: tabular-nums; }
  table { border-collapse: collapse; width: 100%; }
  th { text-align: left; color: var(--ink-muted); font-weight: 500;
       font-size: 12px; border-bottom: 1px solid var(--grid);
       padding: 4px 8px 6px 0; }
  td { padding: 5px 8px 5px 0; border-bottom: 1px solid var(--grid);
       font-variant-numeric: tabular-nums; }
  svg text { fill: var(--ink-muted); font-size: 11px; }
  #events {
    margin: 0; max-height: 240px; overflow-y: auto; font-size: 12px;
    font-family: ui-monospace, SFMono-Regular, Menlo, monospace;
    color: var(--ink-2); white-space: pre-wrap; word-break: break-all;
  }
  #state[data-state="done"] { color: var(--good); }
  #state[data-state="stale"] { color: var(--critical); }
  .wide { grid-column: 1 / -1; }
</style>
</head>
<body>
<h1>__TITLE__</h1>
<p class="sub"><span id="campaign">waiting for campaign…</span>
 · <span id="state" data-state="waiting">waiting</span></p>

<div class="grid">
  <div class="card wide">
    <div class="tiles">
      <div class="tile"><div class="v" id="t-progress">–</div>
        <div class="l">experiments completed</div></div>
      <div class="tile"><div class="v" id="t-failrate">–</div>
        <div class="l">failure rate</div></div>
      <div class="tile"><div class="v" id="t-throughput">–</div>
        <div class="l">tests / second</div></div>
      <div class="tile"><div class="v" id="t-ciwidth">–</div>
        <div class="l">95% CI width (<span id="t-cioutcome">correct</span> share)</div></div>
    </div>
  </div>

  <div class="card">
    <h2>Outcome distribution</h2>
    <div id="outcomes"><p class="bar-label">no completions yet</p></div>
  </div>

  <div class="card">
    <h2>Throughput (tests/s over the run)</h2>
    <svg id="spark" viewBox="0 0 600 120" preserveAspectRatio="none"
         width="100%" height="120" role="img"
         aria-label="throughput sparkline"></svg>
    <p class="bar-label" id="spark-note"></p>
  </div>

  <div class="card">
    <h2>Workers</h2>
    <table>
      <thead><tr><th>worker</th><th>completed</th><th>busy s</th>
        <th>prefix s</th><th>share</th></tr></thead>
      <tbody id="workers"><tr><td colspan="5">no workers yet</td></tr></tbody>
    </table>
  </div>

  <div class="card">
    <h2>Timing split</h2>
    <div id="timing"><p class="bar-label">no timed experiments yet</p></div>
  </div>

  <div class="card">
    <h2>Fault tolerance</h2>
    <table>
      <thead><tr><th>crashes</th><th>respawns</th><th>retries</th>
        <th>timeouts</th><th>quarantined</th></tr></thead>
      <tbody><tr id="fault-tolerance">
        <td>0</td><td>0</td><td>0</td><td>0</td><td>0</td>
      </tr></tbody>
    </table>
    <p class="bar-label" id="fault-note">no supervision events</p>
  </div>

  <div class="card">
    <h2>Fleet</h2>
    <table>
      <thead><tr><th>hosts</th><th>lost</th><th>leases</th><th>expired</th>
        <th>stolen</th><th>merged</th><th>dupes</th></tr></thead>
      <tbody><tr id="fleet">
        <td>0</td><td>0</td><td>0</td><td>0</td><td>0</td><td>0</td><td>0</td>
      </tr></tbody>
    </table>
    <p class="bar-label" id="fleet-note">fleet coordinator inactive</p>
  </div>

  <div class="card wide">
    <h2>Event stream (/events)</h2>
    <pre id="events"></pre>
  </div>
</div>

<script>
"use strict";
const OUTCOME_COLORS = __OUTCOME_COLORS__;
const OUTCOME_ORDER = __OUTCOME_ORDER__;
const FALLBACK = __FALLBACK_COLOR__;
const dark = window.matchMedia
  && window.matchMedia("(prefers-color-scheme: dark)").matches;
const colorOf = name => (OUTCOME_COLORS[name] || FALLBACK)[dark ? 1 : 0];
const fmt = (x, d = 1) => x == null ? "–" : Number(x).toFixed(d);
const pct = x => x == null ? "–" : (100 * x).toFixed(1) + "%";

function renderBars(el, rows) {
  // rows: [{label, fraction, value, color}] — label + value always printed,
  // so the hue never carries the meaning alone.
  if (!rows.length) {
    el.innerHTML = '<p class="bar-label">no completions yet</p>';
    return;
  }
  el.innerHTML = rows.map(r => `
    <div class="bar-row">
      <span class="bar-label" title="${r.label}">${r.label}</span>
      <div class="bar-track"><div class="bar-fill"
        style="width:${Math.max(0, Math.min(100, 100 * r.fraction))}%;
               background:${r.color}"></div></div>
      <span class="bar-value">${r.value}</span>
    </div>`).join("");
}

function renderSpark(series) {
  const svg = document.getElementById("spark");
  if (!series.length) { svg.innerHTML = ""; return; }
  const w = 600, h = 120, pad = 6;
  const xs = series.map(p => p.elapsed_s), ys = series.map(p => p.per_s);
  const x0 = Math.min(...xs), x1 = Math.max(...xs, x0 + 1e-9);
  const yMax = Math.max(...ys, 1e-9);
  const X = x => pad + (w - 2 * pad) * (x - x0) / (x1 - x0);
  const Y = y => h - pad - (h - 2 * pad) * y / yMax;
  const pts = series.map(p => `${X(p.elapsed_s).toFixed(1)},${Y(p.per_s).toFixed(1)}`);
  const last = series[series.length - 1];
  svg.innerHTML =
    `<line x1="${pad}" y1="${h - pad}" x2="${w - pad}" y2="${h - pad}"
       stroke="var(--baseline)" stroke-width="1"/>` +
    `<polyline points="${pts.join(" ")}" fill="none"
       stroke="var(--series-1)" stroke-width="2"
       stroke-linejoin="round" stroke-linecap="round"/>` +
    `<circle cx="${X(last.elapsed_s)}" cy="${Y(last.per_s)}" r="3.5"
       fill="var(--series-1)" stroke="var(--surface-1)" stroke-width="2"/>`;
  document.getElementById("spark-note").textContent =
    `now ${fmt(last.per_s)} /s · peak ${fmt(yMax)} /s`;
}

function render(m) {
  const snap = m.snapshot || {};
  const campaign = m.campaign || {};
  document.getElementById("campaign").textContent = campaign.name
    ? `campaign ${campaign.name}` : "waiting for campaign…";
  const stale = m.updated_ts && (m.ts - m.updated_ts) > 10 && m.state === "running";
  const state = stale ? "stale" : m.state;
  const stateEl = document.getElementById("state");
  stateEl.textContent = state;
  stateEl.dataset.state = state;

  const total = snap.total || campaign.total;
  document.getElementById("t-progress").textContent =
    snap.completed == null ? "–"
      : total ? `${snap.completed} / ${total}` : `${snap.completed}`;
  document.getElementById("t-failrate").textContent = pct(snap.failure_rate);
  document.getElementById("t-throughput").textContent =
    fmt(m.throughput && m.throughput.current_per_s);
  const conv = m.convergence || {};
  document.getElementById("t-ciwidth").textContent =
    conv.n ? pct(conv.ci_width) : "–";
  document.getElementById("t-cioutcome").textContent = conv.outcome || "correct";

  const counts = snap.outcome_counts || {};
  const completed = snap.completed || 0;
  // Fixed display order: adjacency is static, so the validated palette
  // separation holds, and rows never shuffle under a live update.
  const rank = name => {
    const i = OUTCOME_ORDER.indexOf(name);
    return i < 0 ? OUTCOME_ORDER.length : i;
  };
  renderBars(document.getElementById("outcomes"),
    Object.entries(counts)
      .sort((a, b) => rank(a[0]) - rank(b[0]) || a[0].localeCompare(b[0]))
      .map(([name, count]) => ({
        label: name, fraction: completed ? count / completed : 0,
        value: `${count} · ${pct(completed ? count / completed : 0)}`,
        color: colorOf(name),
      })));

  renderSpark((m.throughput && m.throughput.series) || []);

  const workers = m.workers || [];
  const body = document.getElementById("workers");
  if (workers.length) {
    const done = workers.reduce((a, w) => a + w.completed, 0) || 1;
    body.innerHTML = workers.map(w => `<tr>
      <td>${w.worker}</td><td>${w.completed}</td>
      <td>${fmt(w.busy_s, 2)}</td><td>${fmt(w.prefix_s, 2)}</td>
      <td>${pct(w.completed / done)}</td></tr>`).join("");
  }

  const ft = m.fault_tolerance || {};
  const ftRow = document.getElementById("fault-tolerance");
  ftRow.innerHTML = ["worker_crashes", "worker_respawns", "retries",
                     "timeouts", "quarantined"]
    .map(key => `<td>${ft[key] || 0}</td>`).join("");
  const ftTotal = Object.values(ft).reduce((a, b) => a + (b || 0), 0);
  document.getElementById("fault-note").textContent = ftTotal
    ? "supervision intervened — see the event stream"
    : "no supervision events";

  const fleet = m.fleet || {};
  document.getElementById("fleet").innerHTML =
    ["hosts_joined", "hosts_lost", "leases_granted", "leases_expired",
     "shards_stolen", "records_merged", "duplicates"]
      .map(key => `<td>${fleet[key] || 0}</td>`).join("");
  const fleetCampaigns = fleet.campaigns || [];
  document.getElementById("fleet-note").textContent = fleet.active
    ? (fleetCampaigns.map(c => `${c.campaign}: ${c.merged}/${c.total}`)
         .join(" · ") || "fleet active — no results merged yet")
    : "fleet coordinator inactive";

  const t = m.timing || {};
  const timed = t.timed_experiments || 0;
  if (timed) {
    const totalWall = t.prefix_wall_s_total + t.post_injection_wall_s_total;
    renderBars(document.getElementById("timing"), [
      { label: "pre-injection (prefix)",
        fraction: totalWall ? t.prefix_wall_s_total / totalWall : 0,
        value: `${fmt(t.prefix_wall_s_total, 2)} s`,
        color: "var(--series-1)" },
      { label: "post-injection",
        fraction: totalWall ? t.post_injection_wall_s_total / totalWall : 0,
        value: `${fmt(t.post_injection_wall_s_total, 2)} s`,
        color: dark ? "#d95926" : "#eb6834" },
    ]);
  }
}

async function poll() {
  try {
    const response = await fetch("metrics.json", { cache: "no-store" });
    render(await response.json());
  } catch (err) { /* server going away is normal at campaign end */ }
}
poll();
setInterval(poll, 1000);

const events = document.getElementById("events");
try {
  const source = new EventSource("events");
  source.onmessage = message => {
    const atBottom =
      events.scrollTop + events.clientHeight >= events.scrollHeight - 4;
    events.textContent += message.data + "\\n";
    const lines = events.textContent.split("\\n");
    if (lines.length > 200) {
      events.textContent = lines.slice(lines.length - 200).join("\\n");
    }
    if (atBottom) events.scrollTop = events.scrollHeight;
  };
} catch (err) { events.textContent = "(event stream unavailable)"; }
</script>
</body>
</html>
"""


def render_dashboard_html(title: str = "repro-fi campaign") -> str:
    """The single-file dashboard page served at ``/``."""
    return (
        _PAGE
        .replace("__OUTCOME_COLORS__", json.dumps(OUTCOME_COLORS))
        .replace("__OUTCOME_ORDER__", json.dumps(list(OUTCOME_ORDER)))
        .replace("__FALLBACK_COLOR__", json.dumps(_FALLBACK_COLOR))
        .replace("__TITLE__", title)
    )


def render_text_dashboard(metrics: dict) -> str:
    """Terminal rendering of one ``/metrics.json`` payload."""
    campaign = metrics.get("campaign") or {}
    snapshot = metrics.get("snapshot") or {}
    ascii_charts = metrics.get("ascii") or {}
    convergence = metrics.get("convergence") or {}
    lines = [
        f"campaign {campaign.get('name', '?')} [{metrics.get('state', '?')}]",
        f"  completed : {snapshot.get('completed', 0)}"
        f"/{snapshot.get('total') or campaign.get('total', '?')}",
        f"  failures  : {snapshot.get('failures', 0)} "
        f"({snapshot.get('failure_rate', 0.0):.1%})",
        f"  throughput: {snapshot.get('throughput_per_s', 0.0):.1f} tests/s",
    ]
    if convergence.get("n"):
        lines.append(
            f"  {convergence['outcome']} share "
            f"{convergence['fraction']:.1%} "
            f"(95% CI width {convergence['ci_width']:.1%} "
            f"after {convergence['n']} tests)"
        )
    outcome_bars = ascii_charts.get("outcome_bars")
    if outcome_bars:
        lines += ["", outcome_bars]
    sparkline = ascii_charts.get("throughput_sparkline")
    if sparkline:
        lines += ["", f"throughput: {sparkline}"]
    fault_tolerance = metrics.get("fault_tolerance") or {}
    if any(fault_tolerance.values()):
        lines += ["", "fault tolerance:"]
        lines.append(
            f"  crashes {fault_tolerance.get('worker_crashes', 0)}  "
            f"respawns {fault_tolerance.get('worker_respawns', 0)}  "
            f"retries {fault_tolerance.get('retries', 0)}  "
            f"timeouts {fault_tolerance.get('timeouts', 0)}  "
            f"quarantined {fault_tolerance.get('quarantined', 0)}"
        )
    fleet = metrics.get("fleet") or {}
    if fleet.get("active"):
        lines += ["", "fleet:"]
        lines.append(
            f"  hosts {fleet.get('hosts_joined', 0)} joined / "
            f"{fleet.get('hosts_lost', 0)} lost  "
            f"leases {fleet.get('leases_granted', 0)} granted / "
            f"{fleet.get('leases_expired', 0)} expired / "
            f"{fleet.get('shards_stolen', 0)} stolen"
        )
        lines.append(
            f"  records {fleet.get('records_merged', 0)} merged  "
            f"duplicates {fleet.get('duplicates', 0)}"
        )
        for campaign in fleet.get("campaigns") or []:
            lines.append(
                f"  {campaign['campaign']}: "
                f"{campaign['merged']}/{campaign['total']} merged"
            )
    workers = metrics.get("workers") or []
    if workers:
        lines += ["", "workers:"]
        for stats in workers:
            lines.append(
                f"  {stats['worker']:<10} {stats['completed']:>5} done  "
                f"{stats['busy_s']:8.2f} s busy  "
                f"{stats['prefix_s']:8.2f} s prefix"
            )
    return "\n".join(lines)
