//! Order statistics and process counters used by every workload.

use std::collections::BTreeMap;

/// The median of `values` (mean of the two middle values for an even
/// count); `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The nearest-rank `percent`-th percentile of `values`; `0.0` for an
/// empty slice.
pub fn percentile(values: &[f64], percent: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let rank = ((percent / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `count` samples lie strictly beyond the nearest-rank
/// `percent`-th percentile.
pub fn samples_beyond(count: usize, percent: f64) -> usize {
    count.saturating_sub(((percent / 100.0) * count as f64).ceil() as usize)
}

/// Time samples of a fixed set of members, repeated over passes.
#[derive(Debug, Default)]
pub struct MemberTimes {
    by_member: BTreeMap<usize, Vec<f64>>,
}

impl MemberTimes {
    pub fn push(&mut self, member: usize, seconds: f64) {
        self.by_member.entry(member).or_default().push(seconds);
    }

    /// Number of samples over all members.
    pub fn count(&self) -> usize {
        self.by_member.values().map(Vec::len).sum()
    }

    /// The median over members of each member's median time.  Members
    /// differ in cost by up to 40x, so the median of the pooled samples
    /// would sit in the gap between two members and follow their extreme
    /// samples; the median member's median does not.
    pub fn p50(&self) -> f64 {
        let medians: Vec<f64> = self.by_member.values().map(|v| median(v)).collect();
        median(&medians)
    }

    /// The nearest-rank `percent`-th percentile of all samples.
    pub fn percentile(&self, percent: f64) -> f64 {
        let all: Vec<f64> = self.by_member.values().flatten().copied().collect();
        percentile(&all, percent)
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "/proc/self/status has no VmHWM".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_follow_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&values, 75.0), 30.0);
        assert_eq!(samples_beyond(40, 75.0), 10);
        assert_eq!(samples_beyond(254, 95.0), 12);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn member_p50_is_the_median_members_median() {
        let mut times = MemberTimes::default();
        for (member, seconds) in [
            (0, 1.0),
            (0, 3.0),
            (1, 10.0),
            (1, 12.0),
            (2, 100.0),
            (2, 90.0),
        ] {
            times.push(member, seconds);
        }
        assert_eq!(times.count(), 6);
        assert_eq!(times.p50(), 11.0);
        assert_eq!(times.percentile(50.0), 10.0);
    }
}
