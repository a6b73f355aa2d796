//! Overview pane (Fig 2, top left).
//!
//! *"The Overview Pane displays the representatives of the similarity
//! groups, color-coded such that the color intensity increases
//! proportional with the cardinality of sequences in the group. … Each
//! representative is shown as a small graph that captures the general
//! shape of the group."*

use onex_grouping::OnexBase;
use onex_tseries::normalize::minmax;

use crate::svg::{intensity_color, Scale, Style, SvgCanvas};

/// Builder for the grid of group-representative small multiples.
#[derive(Debug, Clone)]
pub struct OverviewPane {
    columns: usize,
    cell: (u32, u32),
    title: String,
    /// `(representative, cardinality)` in display order.
    groups: Vec<(Vec<f64>, usize)>,
}

impl OverviewPane {
    /// An empty pane with `columns` cells per row of size `cell_w`×`cell_h`.
    pub fn new(columns: usize, cell_w: u32, cell_h: u32, title: impl Into<String>) -> Self {
        OverviewPane {
            columns: columns.max(1),
            cell: (cell_w.max(24), cell_h.max(20)),
            title: title.into(),
            groups: Vec::new(),
        }
    }

    /// Add one group cell.
    pub fn add_group(mut self, representative: &[f64], cardinality: usize) -> Self {
        self.groups.push((representative.to_vec(), cardinality));
        self
    }

    /// Populate from a base: the groups of one length, largest cardinality
    /// first (ties in group order), capped at `max_cells`. Only the cells
    /// kept copy their representative.
    pub fn from_base(base: &OnexBase, len: usize, max_cells: usize) -> Self {
        let mut pane = OverviewPane::new(6, 96, 64, format!("ONEX base overview — length {len}"));
        let groups = base.groups_for_len(len);
        pane.groups = ranked(groups.iter().map(|g| g.cardinality()), max_cells)
            .into_iter()
            .map(|(gi, cardinality)| (groups.at(gi).representative().to_vec(), cardinality))
            .collect();
        pane
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when no groups were added.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Render the grid to SVG.
    pub fn render(&self) -> String {
        let header = 24u32;
        let gap = 6u32;
        let rows = self.groups.len().div_ceil(self.columns).max(1);
        let width = self.columns as u32 * (self.cell.0 + gap) + gap;
        let height = header + rows as u32 * (self.cell.1 + gap) + gap;
        let mut c = SvgCanvas::new(width, height);
        c.text(8.0, 16.0, 12.0, &self.title);
        let max_card = self.groups.iter().map(|(_, k)| *k).max().unwrap_or(1);

        for (idx, (rep, card)) in self.groups.iter().enumerate() {
            let col = idx % self.columns;
            let row = idx / self.columns;
            let x0 = (gap + col as u32 * (self.cell.0 + gap)) as f64;
            let y0 = (header + gap + row as u32 * (self.cell.1 + gap)) as f64;
            let (cw, ch) = (self.cell.0 as f64, self.cell.1 as f64);
            // Cardinality-coded background.
            let t = *card as f64 / max_card as f64;
            let mut bg = Style::fill(&intensity_color(t));
            bg.stroke = "#999".into();
            bg.stroke_width = 0.6;
            c.rect(x0, y0, cw, ch, &bg);
            // Shape sparkline.
            if rep.len() >= 2 {
                let norm = minmax(rep);
                let sx = Scale::new((0.0, (norm.len() - 1) as f64), (x0 + 4.0, x0 + cw - 4.0));
                let sy = Scale::new((0.0, 1.0), (y0 + ch - 14.0, y0 + 4.0));
                let pts: Vec<(f64, f64)> = norm
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (sx.apply(i as f64), sy.apply(v)))
                    .collect();
                let line = if t > 0.55 {
                    Style::stroke("#fff")
                } else {
                    Style::stroke("#1f4e79")
                };
                c.polyline(&pts, &line);
            }
            c.text(x0 + 4.0, y0 + ch - 3.0, 9.0, &format!("×{card}"));
        }
        c.finish()
    }
}

/// The `(group index, cardinality)` of the cells a pane keeps: largest
/// cardinality first, ties in group order, at most `max_cells` of them —
/// decided before any representative is copied.
fn ranked(cardinalities: impl Iterator<Item = usize>, max_cells: usize) -> Vec<(usize, usize)> {
    let mut ranked: Vec<(usize, usize)> = cardinalities.enumerate().collect();
    // Stable, so equal cardinalities stay in group order.
    ranked.sort_by_key(|&(_, cardinality)| std::cmp::Reverse(cardinality));
    ranked.truncate(max_cells);
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use onex_grouping::{BaseBuilder, BaseConfig};
    use onex_tseries::gen::{random_walk_dataset, SyntheticConfig};

    #[test]
    fn grid_renders_every_group() {
        let pane = OverviewPane::new(3, 80, 50, "overview")
            .add_group(&[1.0, 2.0, 1.0], 5)
            .add_group(&[0.0, 1.0, 2.0], 1)
            .add_group(&[2.0, 1.0, 0.0], 3)
            .add_group(&[1.0, 1.0, 1.0], 2);
        let svg = pane.render();
        assert_eq!(svg.matches("<rect").count(), 1 + 4, "background + cells");
        assert_eq!(svg.matches("<polyline").count(), 4);
        assert!(svg.contains("×5"));
        assert_eq!(pane.len(), 4);
    }

    #[test]
    fn highest_cardinality_is_most_intense() {
        let svg = OverviewPane::new(2, 80, 50, "o")
            .add_group(&[1.0, 2.0], 10)
            .add_group(&[1.0, 2.0], 1)
            .render();
        assert!(svg.contains(&intensity_color(1.0)));
        assert!(svg.contains(&intensity_color(0.1)));
    }

    #[test]
    fn from_base_sorts_by_cardinality() {
        let ds = random_walk_dataset(SyntheticConfig {
            series: 6,
            len: 30,
            seed: 50,
        });
        let (base, _) = BaseBuilder::new(BaseConfig::new(1.5, 8, 8))
            .unwrap()
            .build(&ds);
        let pane = OverviewPane::from_base(&base, 8, 12);
        assert!(!pane.is_empty());
        for w in pane.groups.windows(2) {
            assert!(w[0].1 >= w[1].1, "descending cardinality");
        }
        assert!(pane.len() <= 12);
        let empty = OverviewPane::from_base(&base, 9999, 12);
        assert!(empty.is_empty());
        assert!(empty.render().starts_with("<svg"));
    }

    #[test]
    fn from_base_keeps_tied_cardinalities_in_group_order() {
        let ds = random_walk_dataset(SyntheticConfig {
            series: 8,
            len: 40,
            seed: 51,
        });
        let (base, _) = BaseBuilder::new(BaseConfig::new(1.2, 8, 8))
            .unwrap()
            .build(&ds);
        // The pane as it was made before ranking came first: every
        // representative copied, sorted stably, then cut.
        let mut every: Vec<(Vec<f64>, usize)> = base
            .groups_for_len(8)
            .iter()
            .map(|g| (g.representative().to_vec(), g.cardinality()))
            .collect();
        every.sort_by_key(|g| std::cmp::Reverse(g.1));
        let ties = every.windows(2).filter(|w| w[0].1 == w[1].1).count();
        assert!(ties > 3, "{ties} ties among {} groups", every.len());
        for max_cells in [0, 1, 5, every.len() / 2, every.len(), every.len() + 7] {
            let pane = OverviewPane::from_base(&base, 8, max_cells);
            let want = &every[..max_cells.min(every.len())];
            assert_eq!(pane.groups, want, "max_cells = {max_cells}");
        }
    }

    #[test]
    fn ranking_keeps_at_most_max_cells_before_anything_is_copied() {
        // A column that does not compact: thousands of groups, a few
        // dozen cells. What `from_base` copies is what `ranked` returns.
        let cardinalities: Vec<usize> = (0..11_400).map(|gi| 1 + gi % 7).collect();
        for max_cells in [0, 1, 24, 11_400, 20_000] {
            let kept = ranked(cardinalities.iter().copied(), max_cells);
            assert_eq!(kept.len(), max_cells.min(cardinalities.len()));
            assert!(kept.iter().all(|&(gi, c)| cardinalities[gi] == c));
            // Largest first, ties by group index.
            assert!(kept
                .windows(2)
                .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)));
        }
        assert_eq!(
            ranked([2, 5, 2, 5].into_iter(), 3),
            [(1, 5), (3, 5), (0, 2)]
        );
    }
}
