//! A small hand-rolled SVG writer so every figure binary can emit an
//! actual plot next to its JSON record — no plotting dependency needed.
//!
//! Supports exactly what the paper's figures require: scatter panels with
//! two series and highlighted Pareto points (Fig. 5), and grouped bar
//! charts (Fig. 1, Fig. 6).

use crate::ScatterPoint;
use std::fmt::Write as _;

const W: f64 = 420.0;
const H: f64 = 320.0;
const MARGIN: f64 = 48.0;

fn axis_range(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if !lo.is_finite() || !hi.is_finite() {
        return (0.0, 1.0);
    }
    let pad = ((hi - lo) * 0.06).max(1e-9);
    (lo - pad, hi + pad)
}

fn scale(v: f64, lo: f64, hi: f64, out_lo: f64, out_hi: f64) -> f64 {
    out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo)
}

/// Renders one scatter panel with two series ("ours" in blue, "baseline"
/// in orange); Pareto-front members are drawn filled and larger.
pub fn scatter_panel(
    title: &str,
    x_label: &str,
    y_label: &str,
    ours: &[ScatterPoint],
    baseline: &[ScatterPoint],
) -> String {
    let (x_lo, x_hi) = axis_range(ours.iter().chain(baseline).map(|p| p.x));
    let (y_lo, y_hi) = axis_range(ours.iter().chain(baseline).map(|p| p.y));
    let mut s = String::new();
    let _ = write!(
        s,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">"##
    );
    let _ = write!(s, r##"<rect width="{W}" height="{H}" fill="white"/>"##);
    // Frame.
    let _ = write!(
        s,
        r##"<rect x="{MARGIN}" y="{MARGIN}" width="{}" height="{}" fill="none" stroke="#555"/>"##,
        W - 2.0 * MARGIN,
        H - 2.0 * MARGIN
    );
    let _ = write!(
        s,
        r##"<text x="{}" y="20" text-anchor="middle" font-size="13" font-family="sans-serif">{title}</text>"##,
        W / 2.0
    );
    let _ = write!(
        s,
        r##"<text x="{}" y="{}" text-anchor="middle" font-size="11" font-family="sans-serif">{x_label}</text>"##,
        W / 2.0,
        H - 8.0
    );
    let _ = write!(
        s,
        r##"<text x="14" y="{}" text-anchor="middle" font-size="11" font-family="sans-serif" transform="rotate(-90 14 {})">{y_label}</text>"##,
        H / 2.0,
        H / 2.0
    );
    // Axis extremes as tick labels.
    for (v, x_axis) in [(x_lo, true), (x_hi, true), (y_lo, false), (y_hi, false)] {
        if x_axis {
            let px = scale(v, x_lo, x_hi, MARGIN, W - MARGIN);
            let _ = write!(
                s,
                r##"<text x="{px}" y="{}" text-anchor="middle" font-size="9" font-family="sans-serif">{v:.2}</text>"##,
                H - MARGIN + 14.0
            );
        } else {
            let py = scale(v, y_lo, y_hi, H - MARGIN, MARGIN);
            let _ = write!(
                s,
                r##"<text x="{}" y="{py}" text-anchor="end" font-size="9" font-family="sans-serif">{v:.2}</text>"##,
                MARGIN - 4.0
            );
        }
    }
    let mut series = |points: &[ScatterPoint], color: &str| {
        for p in points {
            let px = scale(p.x, x_lo, x_hi, MARGIN, W - MARGIN);
            let py = scale(p.y, y_lo, y_hi, H - MARGIN, MARGIN);
            let (r, fill, opacity) =
                if p.pareto { (3.5, color, "0.95") } else { (2.0, "none", "0.45") };
            let _ = write!(
                s,
                r##"<circle cx="{px:.1}" cy="{py:.1}" r="{r}" fill="{fill}" stroke="{color}" opacity="{opacity}"/>"##
            );
        }
    };
    series(baseline, "#e6872e");
    series(ours, "#2a6fb0");
    // Legend.
    let _ = write!(
        s,
        r##"<circle cx="{}" cy="{}" r="3.5" fill="#2a6fb0"/><text x="{}" y="{}" font-size="10" font-family="sans-serif">HADAS</text>"##,
        W - MARGIN - 96.0,
        MARGIN + 12.0,
        W - MARGIN - 88.0,
        MARGIN + 15.5
    );
    let _ = write!(
        s,
        r##"<circle cx="{}" cy="{}" r="3.5" fill="#e6872e"/><text x="{}" y="{}" font-size="10" font-family="sans-serif">baselines</text>"##,
        W - MARGIN - 96.0,
        MARGIN + 26.0,
        W - MARGIN - 88.0,
        MARGIN + 29.5
    );
    s.push_str("</svg>");
    s
}

/// Renders a grouped bar chart: one group per label, one bar per series.
pub fn grouped_bars(
    title: &str,
    y_label: &str,
    labels: &[String],
    series: &[(&str, Vec<f64>)],
) -> String {
    let (_, y_hi) = axis_range(series.iter().flat_map(|(_, v)| v.iter().copied()).chain([0.0]));
    let y_lo = 0.0;
    let mut s = String::new();
    let _ = write!(
        s,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" viewBox="0 0 {W} {H}">"##
    );
    let _ = write!(s, r##"<rect width="{W}" height="{H}" fill="white"/>"##);
    let _ = write!(
        s,
        r##"<text x="{}" y="20" text-anchor="middle" font-size="13" font-family="sans-serif">{title}</text>"##,
        W / 2.0
    );
    let _ = write!(
        s,
        r##"<text x="14" y="{}" text-anchor="middle" font-size="11" font-family="sans-serif" transform="rotate(-90 14 {})">{y_label}</text>"##,
        H / 2.0,
        H / 2.0
    );
    let colors = ["#2a6fb0", "#e6872e", "#4ca167", "#9467bd"];
    let plot_w = W - 2.0 * MARGIN;
    let group_w = plot_w / labels.len().max(1) as f64;
    let bar_w = (group_w * 0.8) / series.len().max(1) as f64;
    for (g, label) in labels.iter().enumerate() {
        let gx = MARGIN + g as f64 * group_w;
        for (k, (_, values)) in series.iter().enumerate() {
            let v = values.get(g).copied().unwrap_or(0.0);
            let bh = scale(v, y_lo, y_hi, 0.0, H - 2.0 * MARGIN);
            let x = gx + group_w * 0.1 + k as f64 * bar_w;
            let y = H - MARGIN - bh;
            let _ = write!(
                s,
                r##"<rect x="{x:.1}" y="{y:.1}" width="{:.1}" height="{bh:.1}" fill="{}"/>"##,
                bar_w * 0.9,
                colors[k % colors.len()]
            );
            let _ = write!(
                s,
                r##"<text x="{:.1}" y="{:.1}" text-anchor="middle" font-size="8" font-family="sans-serif">{v:.0}</text>"##,
                x + bar_w * 0.45,
                y - 3.0
            );
        }
        let _ = write!(
            s,
            r##"<text x="{:.1}" y="{}" text-anchor="middle" font-size="9" font-family="sans-serif">{label}</text>"##,
            gx + group_w / 2.0,
            H - MARGIN + 14.0
        );
    }
    // Legend.
    for (k, (name, _)) in series.iter().enumerate() {
        let y = MARGIN + 12.0 * (k as f64 + 1.0);
        let _ = write!(
            s,
            r##"<rect x="{}" y="{}" width="9" height="9" fill="{}"/><text x="{}" y="{}" font-size="10" font-family="sans-serif">{name}</text>"##,
            W - MARGIN - 110.0,
            y - 8.0,
            colors[k % colors.len()],
            W - MARGIN - 97.0,
            y
        );
    }
    s.push_str("</svg>");
    s
}

/// Writes an SVG next to the JSON records under `dir` (usually
/// [`crate::BenchEnv::results_dir`]).
///
/// # Errors
///
/// Returns I/O failures, like [`crate::BenchEnv::write_bench`].
pub fn write_svg(dir: &std::path::Path, name: &str, svg: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.svg"));
    std::fs::write(&path, svg)?;
    println!("[results] wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, f64, bool)]) -> Vec<ScatterPoint> {
        v.iter().map(|&(x, y, pareto)| ScatterPoint { x, y, pareto }).collect()
    }

    #[test]
    fn scatter_panel_is_valid_svg_with_all_points() {
        let ours = pts(&[(1.0, 2.0, true), (2.0, 1.0, false)]);
        let base = pts(&[(1.5, 1.5, false)]);
        let svg = scatter_panel("t", "x", "y", &ours, &base);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<circle").count(), 3 + 2, "points + legend dots");
        assert!(svg.contains("HADAS"));
    }

    #[test]
    fn bars_render_one_rect_per_value() {
        let svg = grouped_bars(
            "t",
            "mJ",
            &["a".into(), "b".into()],
            &[("s1", vec![1.0, 2.0]), ("s2", vec![3.0, 4.0])],
        );
        // 4 bars + 2 legend swatches.
        assert_eq!(svg.matches("<rect").count(), 4 + 2 + 1, "bars + legend + background");
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let svg = scatter_panel("t", "x", "y", &[], &[]);
        assert!(svg.contains("</svg>"));
        let svg = grouped_bars("t", "y", &[], &[]);
        assert!(svg.contains("</svg>"));
    }
}
