use std::collections::HashMap;

use crate::ids::{ElementId, NodeId};

/// A recorded time-series view over one signal of a [`WaveformSet`]: one
/// column of the set's sample rows.
///
/// The time axis is shared by every signal in the set.
#[derive(Debug, Clone, Copy)]
pub struct Waveform<'a> {
    times: &'a [f64],
    /// Sample rows of `stride` values each; this signal is entry `col` of
    /// every row.
    rows: &'a [f64],
    col: usize,
    stride: usize,
}

impl<'a> Waveform<'a> {
    /// Builds a waveform view over external slices — used to analyse
    /// *derived* series (e.g. a flow value computed from several node
    /// voltages) with the same settle-time machinery. This is the
    /// one-column case of a set's strided view.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn from_slices(times: &'a [f64], values: &'a [f64]) -> Self {
        assert_eq!(times.len(), values.len(), "waveform slices must align");
        Waveform {
            times,
            rows: values,
            col: 0,
            stride: 1,
        }
    }

    /// Sample times (seconds).
    pub fn times(&self) -> &'a [f64] {
        self.times
    }

    /// The value of sample `i`, aligned with [`Waveform::times`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn value(&self, i: usize) -> f64 {
        self.rows[i * self.stride + self.col]
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Last recorded value.
    ///
    /// # Panics
    ///
    /// Panics on an empty waveform.
    pub fn last_value(&self) -> f64 {
        assert!(!self.is_empty(), "waveform is empty");
        self.value(self.len() - 1)
    }

    /// Linearly interpolated value at time `t`, clamped to the recorded
    /// range.
    ///
    /// # Panics
    ///
    /// Panics on an empty waveform.
    pub fn value_at(&self, t: f64) -> f64 {
        assert!(!self.is_empty(), "waveform is empty");
        if t <= self.times[0] {
            return self.value(0);
        }
        if t >= self.times[self.len() - 1] {
            return self.last_value();
        }
        // Binary search for the bracketing interval.
        let idx = self.times.partition_point(|&x| x < t);
        let (t0, t1) = (self.times[idx - 1], self.times[idx]);
        let (v0, v1) = (self.value(idx - 1), self.value(idx));
        if t1 == t0 {
            v1
        } else {
            v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        }
    }

    /// Settling time per the paper's §5.1 definition: the earliest time `T`
    /// such that the signal stays within `frac` (relative) of its **final**
    /// value for all recorded samples at or after `T`.
    ///
    /// The comparison uses `|v − v_final| ≤ frac · max(|v_final|, floor)`
    /// where `floor` guards signals settling to zero.
    ///
    /// Returns `None` if even the last sample violates the band (cannot
    /// happen with `frac > 0`) or the waveform is empty.
    pub fn settle_time(&self, frac: f64) -> Option<f64> {
        self.settle_time_with_floor(frac, 1e-12)
    }

    /// [`Waveform::settle_time`] with an explicit absolute floor.
    pub fn settle_time_with_floor(&self, frac: f64, floor: f64) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        let target = self.last_value();
        let band = frac * target.abs().max(floor);
        // Walk backwards: find the last sample outside the band.
        let mut settle_idx = 0;
        for i in (0..self.len()).rev() {
            if (self.value(i) - target).abs() > band {
                settle_idx = i + 1;
                break;
            }
        }
        self.times.get(settle_idx).copied()
    }

    /// Iterator over `(time, value)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + 'a {
        let values = self.rows.iter().skip(self.col).step_by(self.stride);
        self.times.iter().copied().zip(values.copied())
    }
}

/// All signals recorded by a relaxation transient, sharing one time axis.
///
/// Samples are stored as rows: one contiguous `Vec<f64>` holding, per
/// sample, the probed node voltages then the probed branch currents (the
/// column order given to [`WaveformSet::new`]). Recording a sample is one
/// append; a single signal is read through a strided [`Waveform`] view.
#[derive(Debug, Clone, Default)]
pub struct WaveformSet {
    times: Vec<f64>,
    node_index: HashMap<NodeId, usize>,
    current_index: HashMap<ElementId, usize>,
    /// Values per row: one per probed node, then one per probed element.
    stride: usize,
    /// `times.len()` rows of `stride` values.
    rows: Vec<f64>,
}

impl WaveformSet {
    /// Creates an empty set recording the given node voltages and element
    /// branch currents. Public so reduced-order models outside this crate
    /// can assemble waveform sets with the same analysis API. A node or
    /// element listed twice gets a column per listing; lookups read the
    /// last one.
    pub fn new(nodes: &[NodeId], currents: &[ElementId]) -> Self {
        let node_index = nodes.iter().enumerate().map(|(i, &n)| (n, i));
        let current_index = currents
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, nodes.len() + i));
        WaveformSet {
            node_index: node_index.collect(),
            current_index: current_index.collect(),
            stride: nodes.len() + currents.len(),
            ..WaveformSet::default()
        }
    }

    /// Values per sample row: the node columns, then the current columns.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Reserves storage for exactly `samples` more samples — transient
    /// loops that know their step count allocate the rows once.
    pub fn reserve(&mut self, samples: usize) {
        self.times.reserve_exact(samples);
        self.rows.reserve_exact(samples * self.stride);
    }

    /// Appends one sample row: `values` holds the node columns (in the
    /// order given to [`WaveformSet::new`]) followed by the current columns.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from [`WaveformSet::stride`].
    pub fn push_sample(&mut self, t: f64, values: &[f64]) {
        assert_eq!(values.len(), self.stride, "sample row length");
        self.times.push(t);
        self.rows.extend_from_slice(values);
    }

    /// Shared time axis (seconds).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sample row `i`: every column's value at `times()[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.len(), "sample {i} of {}", self.len());
        &self.rows[i * self.stride..(i + 1) * self.stride]
    }

    /// The column of `node`'s voltage in each [`WaveformSet::row`], if it
    /// was probed.
    pub fn voltage_column(&self, node: NodeId) -> Option<usize> {
        self.node_index.get(&node).copied()
    }

    fn column(&self, col: usize) -> Waveform<'_> {
        Waveform {
            times: &self.times,
            rows: &self.rows,
            col,
            stride: self.stride,
        }
    }

    /// Voltage waveform of `node`, if it was probed.
    pub fn voltage(&self, node: NodeId) -> Option<Waveform<'_>> {
        self.voltage_column(node).map(|c| self.column(c))
    }

    /// Branch-current waveform of `element` (current from the positive
    /// terminal *into* the element), if it was probed.
    pub fn branch_current(&self, element: ElementId) -> Option<Waveform<'_>> {
        self.current_index.get(&element).map(|&c| self.column(c))
    }

    /// Probed nodes.
    pub fn probed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_index.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_set(times: Vec<f64>, values: Vec<f64>) -> WaveformSet {
        let mut set = WaveformSet::new(&[NodeId(1)], &[]);
        for (t, v) in times.iter().zip(&values) {
            set.push_sample(*t, &[*v]);
        }
        set
    }

    #[test]
    fn interpolation_and_clamping() {
        let set = make_set(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 10.0]);
        let w = set.voltage(NodeId(1)).unwrap();
        assert_eq!(w.value_at(-1.0), 0.0);
        assert_eq!(w.value_at(0.5), 5.0);
        assert_eq!(w.value_at(5.0), 10.0);
        assert_eq!(w.last_value(), 10.0);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn settle_time_finds_band_entry() {
        // Exponential-ish: 0, 5, 9, 9.9, 9.99, 10
        let set = make_set(
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
            vec![0.0, 5.0, 9.0, 9.9, 9.99, 10.0],
        );
        let w = set.voltage(NodeId(1)).unwrap();
        // 1% band around 10: |v-10| <= 0.1 → first sample inside is 9.9? No:
        // |9.9-10|=0.1 <= 0.1 → t=3.
        let ts = w.settle_time(0.01).unwrap();
        assert_eq!(ts, 3.0);
        // 0.1% band: |9.99-10|=0.01 <= 0.01 → t=4.
        assert_eq!(w.settle_time(0.001).unwrap(), 4.0);
    }

    #[test]
    fn settle_time_monotone_signal_settling_to_zero() {
        let set = make_set(vec![0.0, 1.0, 2.0], vec![1.0, 1e-3, 0.0]);
        let w = set.voltage(NodeId(1)).unwrap();
        // Final value 0: floor kicks in, only the last sample is within.
        assert_eq!(w.settle_time(0.001).unwrap(), 2.0);
    }

    #[test]
    fn constant_signal_settles_immediately() {
        let set = make_set(vec![0.0, 1.0], vec![2.0, 2.0]);
        let w = set.voltage(NodeId(1)).unwrap();
        assert_eq!(w.settle_time(0.001).unwrap(), 0.0);
    }

    /// Three node columns and one current column, stored as rows.
    fn multi_column_set() -> WaveformSet {
        let mut set = WaveformSet::new(&[NodeId(3), NodeId(1), NodeId(2)], &[ElementId(7)]);
        set.reserve(4);
        for (k, t) in [0.0, 1.0, 2.0, 3.0].into_iter().enumerate() {
            let k = k as f64;
            set.push_sample(t, &[k, 10.0 * k, 5.0, -1e-3 * k]);
        }
        set
    }

    #[test]
    fn multi_column_set_reads_each_column() {
        let set = multi_column_set();
        assert_eq!((set.len(), set.stride()), (4, 4));
        assert_eq!(set.row(2), &[2.0, 20.0, 5.0, -2e-3]);
        assert_eq!(set.voltage_column(NodeId(1)), Some(1));
        let x1 = set.voltage(NodeId(1)).unwrap();
        assert_eq!((x1.len(), x1.value(3), x1.last_value()), (4, 30.0, 30.0));
        let x3: Vec<(f64, f64)> = set.voltage(NodeId(3)).unwrap().iter().collect();
        assert_eq!(x3, [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]);
        let i7 = set.branch_current(ElementId(7)).unwrap();
        assert_eq!(i7.value(1), -1e-3);
        assert!(set.branch_current(ElementId(3)).is_none());
    }

    #[test]
    fn multi_column_interpolation_and_settling() {
        let set = multi_column_set();
        let x1 = set.voltage(NodeId(1)).unwrap();
        assert_eq!(x1.value_at(1.5), 15.0);
        assert_eq!(x1.value_at(-2.0), 0.0);
        assert_eq!(x1.value_at(9.0), 30.0);
        // Ramps settle only at their last sample; a constant at once.
        assert_eq!(x1.settle_time(0.01), Some(3.0));
        assert_eq!(set.voltage(NodeId(2)).unwrap().settle_time(0.01), Some(0.0));
        // A 35% band (10.5 V) around the final 30 V holds the 20 V sample.
        assert_eq!(x1.settle_time(0.35), Some(2.0));
    }

    #[test]
    fn a_repeated_probe_keeps_a_column_per_listing() {
        let mut set = WaveformSet::new(&[NodeId(0), NodeId(4), NodeId(0)], &[]);
        set.push_sample(0.0, &[0.0, 1.0, 0.5]);
        assert_eq!(set.stride(), 3);
        assert_eq!(set.voltage(NodeId(4)).unwrap().last_value(), 1.0);
        assert_eq!(set.voltage(NodeId(0)).unwrap().last_value(), 0.5);
    }

    #[test]
    #[should_panic(expected = "sample row length")]
    fn a_short_sample_row_is_rejected() {
        multi_column_set().push_sample(4.0, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn missing_probe_is_none() {
        let set = make_set(vec![0.0], vec![1.0]);
        assert!(set.voltage(NodeId(9)).is_none());
        assert!(set.branch_current(ElementId(0)).is_none());
    }
}
