//! Sweep-aggregate reports: the result of a capacity × policy cross over
//! a workload set, as produced by the bench matrix runner and the serve
//! layer's `POST /v1/matrix` endpoint.
//!
//! A sweep is a grid of independent [`SimReport`]s; this module adds the
//! aggregation the paper's figures need on top of the raw cells — a
//! workload × configuration UPC table and per-configuration geomeans —
//! in a wire-encodable form (the workspace derive JSON, canonical member
//! order).

use ucsim_model::{FromJson, ToJson};
use ucsim_trace::SharedTrace;

use crate::{PwTrace, SimConfig, SimReport, Simulator};

/// A named simulator configuration (one bar/line of a figure, one column
/// of a sweep).
#[derive(Debug, Clone)]
pub struct LabeledConfig {
    /// Legend label ("baseline", "CLASP", "OC_8K", ...).
    pub label: String,
    /// The configuration.
    pub config: SimConfig,
}

impl LabeledConfig {
    /// Creates a labeled configuration.
    pub fn new(label: &str, config: SimConfig) -> Self {
        LabeledConfig {
            label: label.to_owned(),
            config,
        }
    }
}

/// Runs every configuration against one shared recorded trace — the
/// record-once/replay-many inner loop of a sweep. Each cell's report is
/// byte-identical to regenerating the workload stream for that cell
/// (see [`Simulator::run_trace`]); the walker's synthesis cost is paid
/// once by whoever recorded `trace`, not `configs.len()` times.
///
/// On top of the shared instruction stream, prediction-window generation
/// is recorded once (see [`PwTrace`]) and replayed into every cell whose
/// front-end configuration and run length match the first cell's — in a
/// capacity × policy sweep that is every cell, so the TAGE/BTB/RAS work
/// is also paid once. Cells with a different front end fall back to a
/// full per-cell run and remain byte-identical.
///
/// Configurations carry their own run lengths; `trace` must hold at
/// least the largest `warmup + measure` among them for full-length
/// measurement windows.
pub fn run_configs_on_trace(
    name: &str,
    trace: &SharedTrace,
    configs: &[LabeledConfig],
) -> Vec<SimReport> {
    let Some(first) = configs.first() else {
        return Vec::new();
    };
    let pwt = PwTrace::record(trace, &first.config);
    configs
        .iter()
        .map(|lc| {
            if pwt.matches(&lc.config) {
                pwt.replay(name, &lc.config)
            } else {
                Simulator::new(lc.config.clone()).run_trace(name, trace)
            }
        })
        .collect()
}

/// One completed cell of a sweep: a workload simulated under one labeled
/// configuration.
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct SweepCellReport {
    /// Workload name.
    pub workload: String,
    /// Configuration label (e.g. `"OC_2K"`, `"F-PWAC"`).
    pub label: String,
    /// Generation seed the cell ran with.
    pub seed: u64,
    /// The full simulation report.
    pub report: SimReport,
}

/// An aggregated sweep: every cell plus the derived UPC grid.
///
/// `upc[w][c]` is the UPC of workload `workloads[w]` under configuration
/// `labels[c]`; `geomean_upc[c]` is the geometric mean of column `c`
/// across workloads (the paper's cross-workload summary statistic).
#[derive(Debug, Clone, ToJson, FromJson)]
pub struct SweepReport {
    /// Workloads, in first-appearance (submission) order.
    pub workloads: Vec<String>,
    /// Configuration labels, in first-appearance order.
    pub labels: Vec<String>,
    /// UPC grid, rows = workloads, columns = labels.
    pub upc: Vec<Vec<f64>>,
    /// Per-configuration geometric-mean UPC across workloads.
    pub geomean_upc: Vec<f64>,
    /// The raw cells, in submission order.
    pub cells: Vec<SweepCellReport>,
}

impl SweepReport {
    /// Builds the aggregate view from completed cells.
    ///
    /// Cells may arrive in any order; the grid is keyed by the distinct
    /// workloads/labels in first-appearance order. A missing cell (a
    /// workload × label pair never submitted) leaves `0.0` in the grid
    /// and is excluded from the geomean.
    pub fn from_cells(cells: Vec<SweepCellReport>) -> SweepReport {
        let mut workloads: Vec<String> = Vec::new();
        let mut labels: Vec<String> = Vec::new();
        for c in &cells {
            if !workloads.contains(&c.workload) {
                workloads.push(c.workload.clone());
            }
            if !labels.contains(&c.label) {
                labels.push(c.label.clone());
            }
        }
        let mut upc = vec![vec![0.0; labels.len()]; workloads.len()];
        for c in &cells {
            let w = workloads.iter().position(|n| *n == c.workload).expect("w");
            let l = labels.iter().position(|n| *n == c.label).expect("l");
            upc[w][l] = c.report.upc;
        }
        let geomean_upc = (0..labels.len())
            .map(|l| {
                let col: Vec<f64> = (0..workloads.len())
                    .map(|w| upc[w][l])
                    .filter(|&v| v > 0.0)
                    .collect();
                if col.is_empty() {
                    0.0
                } else {
                    let log_sum: f64 = col.iter().map(|v| v.ln()).sum();
                    (log_sum / col.len() as f64).exp()
                }
            })
            .collect();
        SweepReport {
            workloads,
            labels,
            upc,
            geomean_upc,
            cells,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the sweep holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Adaptive bisection of a sweep's capacity axis toward the UPC *knee*.
///
/// The paper's capacity sweeps (Fig. 9 shape) spend most of their cells
/// confirming the flat tail of the curve: past some capacity, UPC has
/// already converged to within measurement noise of the maximum. The knee
/// is where that happens — the smallest axis index `i` whose metric
/// satisfies `metric(i) >= (1 - tolerance) * metric(n-1)`.
///
/// Because UPC is (weakly) monotone in µop-cache capacity, that predicate
/// is monotone along the axis and the knee can be found by bisection:
/// probe the two endpoints to fix the threshold, then repeatedly probe
/// the midpoint of the open bracket. The driver owns simulation; this
/// type only decides *which* indices to probe next:
///
/// ```text
/// let mut b = KneeBisector::new(axis.len(), 0.05);
/// while b.knee().is_none() {
///     for i in b.next_probes() { b.record(i, simulate(axis[i])); }
/// }
/// ```
///
/// Worst case it probes `2 + ceil(log2(n-1))` of `n` points — 6 of 12 for
/// the standard power-of-two capacity axis — while bracketing the same
/// knee a full sweep would find by linear scan.
#[derive(Debug)]
pub struct KneeBisector {
    n: usize,
    tolerance: f64,
    /// Recorded metrics by axis index.
    metrics: Vec<Option<f64>>,
    /// Open bracket: `lo` fails the threshold, `hi` satisfies it.
    lo: Option<usize>,
    hi: Option<usize>,
    knee: Option<usize>,
}

impl KneeBisector {
    /// A bisector over an axis of `n` ascending points, with relative
    /// `tolerance` in `[0, 1)` (0.05 ⇒ the knee is where the metric first
    /// reaches 95 % of its value at the largest point).
    ///
    /// # Panics
    ///
    /// If `n == 0` or `tolerance` is outside `[0, 1)`.
    pub fn new(n: usize, tolerance: f64) -> Self {
        assert!(n > 0, "axis must be non-empty");
        assert!(
            (0.0..1.0).contains(&tolerance),
            "tolerance must be in [0, 1)"
        );
        KneeBisector {
            n,
            tolerance,
            metrics: vec![None; n],
            lo: None,
            hi: None,
            knee: None,
        }
    }

    /// The axis indices to simulate next: the two endpoints first, then
    /// one midpoint per round. Empty once [`knee`](Self::knee) is some.
    pub fn next_probes(&self) -> Vec<usize> {
        if self.knee.is_some() {
            return Vec::new();
        }
        let mut probes = Vec::new();
        if self.metrics[self.n - 1].is_none() {
            probes.push(self.n - 1);
        }
        if self.n > 1 && self.metrics[0].is_none() {
            probes.insert(0, 0);
        }
        if !probes.is_empty() {
            return probes;
        }
        match (self.lo, self.hi) {
            (Some(lo), Some(hi)) if hi - lo > 1 => vec![lo + (hi - lo) / 2],
            _ => Vec::new(),
        }
    }

    /// Records the metric simulated at axis index `idx` and advances the
    /// bracket. Indices not suggested by [`next_probes`](Self::next_probes)
    /// are accepted too (a full sweep can drive the same type).
    ///
    /// # Panics
    ///
    /// If `idx` is out of range.
    pub fn record(&mut self, idx: usize, metric: f64) {
        assert!(idx < self.n, "axis index {idx} out of range");
        self.metrics[idx] = Some(metric);
        self.advance();
    }

    fn threshold(&self) -> Option<f64> {
        self.metrics[self.n - 1].map(|last| (1.0 - self.tolerance) * last)
    }

    fn advance(&mut self) {
        if self.knee.is_some() {
            return;
        }
        let Some(threshold) = self.threshold() else {
            return;
        };
        if self.n == 1 {
            self.knee = Some(0);
            return;
        }
        let Some(first) = self.metrics[0] else {
            return;
        };
        if first >= threshold {
            self.knee = Some(0);
            return;
        }
        let (mut lo, mut hi) = (self.lo.unwrap_or(0), self.hi.unwrap_or(self.n - 1));
        // Fold in every recorded interior point (bisection only ever
        // probes the bracket midpoint, but a full grid can feed us all).
        for (i, m) in self.metrics.iter().enumerate() {
            let Some(m) = *m else { continue };
            if i > lo && i < hi {
                if m >= threshold {
                    hi = i;
                } else {
                    lo = i;
                }
            }
        }
        self.lo = Some(lo);
        self.hi = Some(hi);
        if hi - lo == 1 {
            self.knee = Some(hi);
        }
    }

    /// The knee's axis index once bracketed to adjacent points.
    pub fn knee(&self) -> Option<usize> {
        self.knee
    }

    /// The current open bracket `(lo, hi)`: the metric at `lo` is below
    /// the threshold, at `hi` above. `None` until both endpoints are
    /// recorded (or once the knee collapsed to index 0).
    pub fn bracket(&self) -> Option<(usize, usize)> {
        match (self.lo, self.hi) {
            (Some(lo), Some(hi)) => Some((lo, hi)),
            _ => None,
        }
    }

    /// Number of axis points recorded so far.
    pub fn probed(&self) -> usize {
        self.metrics.iter().filter(|m| m.is_some()).count()
    }

    /// The axis indices recorded so far, ascending.
    pub fn probed_indices(&self) -> Vec<usize> {
        (0..self.n).filter(|&i| self.metrics[i].is_some()).collect()
    }

    /// The knee a full linear scan of `metrics` would report under the
    /// same rule: the smallest index within `tolerance` of the last
    /// value. The adaptive bisection must agree with this on monotone
    /// data — the equivalence the serve-layer tests assert.
    pub fn linear_knee(metrics: &[f64], tolerance: f64) -> Option<usize> {
        let last = *metrics.last()?;
        let threshold = (1.0 - tolerance) * last;
        metrics.iter().position(|&m| m >= threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(workload: &str, label: &str, upc: f64) -> SweepCellReport {
        let report = SimReport {
            workload: workload.to_owned(),
            upc,
            ..SimReport::default()
        };
        SweepCellReport {
            workload: workload.to_owned(),
            label: label.to_owned(),
            seed: 1,
            report,
        }
    }

    #[test]
    fn grid_and_geomean_follow_first_appearance_order() {
        let r = SweepReport::from_cells(vec![
            cell("a", "OC_2K", 2.0),
            cell("a", "OC_4K", 4.0),
            cell("b", "OC_2K", 8.0),
            cell("b", "OC_4K", 16.0),
        ]);
        assert_eq!(r.workloads, ["a", "b"]);
        assert_eq!(r.labels, ["OC_2K", "OC_4K"]);
        assert_eq!(r.upc, vec![vec![2.0, 4.0], vec![8.0, 16.0]]);
        assert!((r.geomean_upc[0] - 4.0).abs() < 1e-12); // √(2·8)
        assert!((r.geomean_upc[1] - 8.0).abs() < 1e-12); // √(4·16)
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn missing_cells_do_not_poison_the_geomean() {
        let r = SweepReport::from_cells(vec![cell("a", "x", 2.0), cell("b", "y", 3.0)]);
        assert_eq!(r.upc, vec![vec![2.0, 0.0], vec![0.0, 3.0]]);
        assert!((r.geomean_upc[0] - 2.0).abs() < 1e-12);
        assert!((r.geomean_upc[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_report_round_trips_through_json() {
        let r = SweepReport::from_cells(vec![cell("a", "x", 1.5)]);
        let text = r.to_json_string();
        let back = SweepReport::from_json_str(&text).unwrap();
        assert_eq!(back.to_json_string(), text);
        assert_eq!(back.cells[0].report.upc, 1.5);
    }

    /// Drives a bisector to completion over a fixed metric curve,
    /// returning (knee, probes used).
    fn bisect(metrics: &[f64], tolerance: f64) -> (usize, usize) {
        let mut b = KneeBisector::new(metrics.len(), tolerance);
        let mut guard = 0;
        while b.knee().is_none() {
            let probes = b.next_probes();
            assert!(!probes.is_empty(), "stalled without a knee");
            for i in probes {
                b.record(i, metrics[i]);
            }
            guard += 1;
            assert!(guard <= metrics.len(), "bisection failed to converge");
        }
        (b.knee().unwrap(), b.probed())
    }

    #[test]
    fn bisection_matches_linear_scan_on_monotone_curves() {
        // A saturating curve: knee sits where 95 % of the plateau is hit.
        let curve = [0.5, 0.9, 1.3, 1.7, 1.9, 1.97, 1.99, 2.0];
        let (knee, probes) = bisect(&curve, 0.05);
        assert_eq!(
            Some(knee),
            KneeBisector::linear_knee(&curve, 0.05),
            "bisection disagrees with full scan"
        );
        assert_eq!(knee, 4); // 1.9 >= 0.95 * 2.0 = 1.9
        assert!(probes <= 2 + 3, "used {probes} probes for n=8");
    }

    #[test]
    fn bisection_probe_budget_is_logarithmic() {
        for n in [2usize, 3, 5, 12, 33, 100] {
            for knee_at in [0, 1, n / 2, n - 1] {
                let curve: Vec<f64> = (0..n)
                    .map(|i| if i >= knee_at { 2.0 } else { 0.1 })
                    .collect();
                let (knee, probes) = bisect(&curve, 0.05);
                assert_eq!(knee, knee_at, "n={n}");
                let budget = 2 + (usize::BITS - (n - 1).leading_zeros()) as usize;
                assert!(
                    probes <= budget,
                    "n={n} knee={knee_at}: {probes} > {budget}"
                );
            }
        }
    }

    #[test]
    fn knee_at_first_point_needs_only_endpoints() {
        let mut b = KneeBisector::new(12, 0.05);
        assert_eq!(b.next_probes(), vec![0, 11]);
        b.record(0, 1.99);
        b.record(11, 2.0);
        assert_eq!(b.knee(), Some(0));
        assert_eq!(b.probed(), 2);
        assert!(b.next_probes().is_empty());
    }

    #[test]
    fn bracket_narrows_to_adjacent_indices() {
        let mut b = KneeBisector::new(12, 0.05);
        b.record(0, 0.1);
        b.record(11, 2.0);
        assert_eq!(b.bracket(), Some((0, 11)));
        let mut rounds = 0;
        while b.knee().is_none() {
            for i in b.next_probes() {
                b.record(i, if i >= 7 { 2.0 } else { 0.1 });
            }
            rounds += 1;
            assert!(rounds < 12);
        }
        assert_eq!(b.knee(), Some(7));
        let (lo, hi) = b.bracket().unwrap();
        assert_eq!((lo, hi), (6, 7));
    }

    #[test]
    fn single_point_axis_is_its_own_knee() {
        let mut b = KneeBisector::new(1, 0.1);
        assert_eq!(b.next_probes(), vec![0]);
        b.record(0, 1.0);
        assert_eq!(b.knee(), Some(0));
    }

    #[test]
    fn full_grid_recordings_also_converge() {
        // A full sweep feeding every point in order still lands the knee.
        let curve = [0.2, 0.4, 1.92, 1.96, 2.0];
        let mut b = KneeBisector::new(curve.len(), 0.05);
        for (i, &m) in curve.iter().enumerate() {
            b.record(i, m);
        }
        assert_eq!(b.knee(), Some(2));
        assert_eq!(Some(2), KneeBisector::linear_knee(&curve, 0.05));
    }
}
