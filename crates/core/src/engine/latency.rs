//! Latency unit conversion for the histograms the runner restates from
//! the run record (the registry's `latency`, the engine statistics').

/// Converts a latency in virtual seconds to integer nanoseconds for the
/// log-bucketed histograms. Negative inputs (impossible for well-formed
/// lanes, but cheap to guard) clamp to zero.
pub(crate) fn latency_to_ns(seconds: f64) -> u64 {
    (seconds.max(0.0) * 1e9).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_conversion_rounds_and_clamps() {
        assert_eq!(latency_to_ns(0.0), 0);
        assert_eq!(latency_to_ns(1e-9), 1);
        assert_eq!(latency_to_ns(1.5e-9), 2);
        assert_eq!(latency_to_ns(-1.0), 0);
        assert_eq!(latency_to_ns(2.0), 2_000_000_000);
    }
}
