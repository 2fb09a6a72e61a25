//! Optimization levels (the UNOPT / OSI / OTI / OSTI knobs of Figure 10).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which communication optimizations are enabled.
///
/// * `structural` (§3): exploit partitioning invariants — skip or restrict
///   the reduce/broadcast patterns to the mirror subsets that can actually
///   have been written or will actually be read.
/// * `temporal` (§4): exploit the temporal invariance of the partitioning —
///   memoize address translation so that messages carry no global-IDs, and
///   encode update metadata compactly (dense / bit-vector / indices).
/// * `compress` (codec v2): admit the compressed wire modes — varint
///   delta-coded index lists, run-length-coded bitvecs, and same-value
///   collapsing — as extra candidates for the §4.2 size-based selector.
///   Only meaningful when `temporal` is on; turning it off reproduces the
///   original three-mode wire format byte for byte.
///
/// # Examples
///
/// ```
/// use gluon::OptLevel;
///
/// assert_eq!("osti".parse::<OptLevel>().unwrap(), OptLevel::OSTI);
/// assert!(OptLevel::OSTI.structural && OptLevel::OSTI.temporal);
/// assert!(!OptLevel::UNOPT.structural && !OptLevel::UNOPT.temporal);
/// // The codec-v1 baseline: same optimizations, pre-compression wire format.
/// let baseline = OptLevel::OSTI.without_compression();
/// assert_eq!(baseline.to_string(), "osti-nc");
/// assert_eq!("osti-nc".parse::<OptLevel>().unwrap(), baseline);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct OptLevel {
    /// Exploit structural invariants of the partitioning policy.
    pub structural: bool,
    /// Exploit temporal invariance (memoization + metadata encoding).
    pub temporal: bool,
    /// Admit the codec-v2 compressed wire modes as selector candidates.
    pub compress: bool,
}

impl OptLevel {
    /// Both optimizations off: the gather-apply-scatter baseline that sends
    /// global-IDs with every value.
    pub const UNOPT: OptLevel = OptLevel {
        structural: false,
        temporal: false,
        compress: true,
    };
    /// Structural invariants only.
    pub const OSI: OptLevel = OptLevel {
        structural: true,
        temporal: false,
        compress: true,
    };
    /// Temporal invariance only.
    pub const OTI: OptLevel = OptLevel {
        structural: false,
        temporal: true,
        compress: true,
    };
    /// Both on: standard Gluon.
    pub const OSTI: OptLevel = OptLevel {
        structural: true,
        temporal: true,
        compress: true,
    };

    /// The four levels in the paper's presentation order.
    pub const ALL: [OptLevel; 4] = [Self::UNOPT, Self::OSI, Self::OTI, Self::OSTI];

    /// Lowercase name (`unopt`, `osi`, `oti`, `osti`). Does not reflect the
    /// `compress` knob; [`fmt::Display`] appends `-nc` for that.
    pub fn name(self) -> &'static str {
        match (self.structural, self.temporal) {
            (false, false) => "unopt",
            (true, false) => "osi",
            (false, true) => "oti",
            (true, true) => "osti",
        }
    }

    /// The same level with the codec-v2 compressed modes disabled — the
    /// pre-compression wire-format baseline, byte for byte.
    pub fn without_compression(self) -> OptLevel {
        OptLevel {
            compress: false,
            ..self
        }
    }
}

impl Default for OptLevel {
    /// The default is full Gluon ([`OptLevel::OSTI`]).
    fn default() -> Self {
        OptLevel::OSTI
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())?;
        if !self.compress {
            f.write_str("-nc")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for OptLevel {
    type Err = ParseOptLevelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (base, compress) = match s.strip_suffix("-nc") {
            Some(base) => (base, false),
            None => (s, true),
        };
        let level = match base {
            "unopt" => OptLevel::UNOPT,
            "osi" => OptLevel::OSI,
            "oti" => OptLevel::OTI,
            "osti" => OptLevel::OSTI,
            _ => return Err(ParseOptLevelError(s.to_owned())),
        };
        Ok(OptLevel { compress, ..level })
    }
}

/// Error parsing an [`OptLevel`] name.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseOptLevelError(String);

impl fmt::Display for ParseOptLevelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown optimization level {:?}, expected unopt/osi/oti/osti with an optional -nc suffix",
            self.0
        )
    }
}

impl std::error::Error for ParseOptLevelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for level in OptLevel::ALL {
            assert_eq!(level.name().parse::<OptLevel>().expect("parses"), level);
            assert_eq!(level.to_string(), level.name());
            let nc = level.without_compression();
            assert_eq!(nc.to_string(), format!("{}-nc", level.name()));
            assert_eq!(nc.to_string().parse::<OptLevel>().expect("parses"), nc);
        }
        for bad in ["best", "-nc", "osti-nc-nc", "osti-fast", "osti-"] {
            assert_eq!(
                bad.parse::<OptLevel>(),
                Err(ParseOptLevelError(bad.to_owned())),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn default_is_full_gluon() {
        assert_eq!(OptLevel::default(), OptLevel::OSTI);
        assert!(OptLevel::default().compress);
    }
}
