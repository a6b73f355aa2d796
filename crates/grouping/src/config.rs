use onex_api::OnexError;

/// How a group's representative evolves as members join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepresentativePolicy {
    /// The representative is the arithmetic mean of all members — the
    /// paper's definition ("summarize these groups by their centroid, or
    /// the average of all sequences in each group"). The `ST/2` membership
    /// test is applied against the *evolving* centroid, so the invariant
    /// "every member within `ST/2` of the representative" can drift
    /// slightly; [`crate::OnexBase::audit`] quantifies by how much.
    #[default]
    Centroid,
    /// The representative is the first member, frozen. The `ST/2` test is
    /// then exact for every member forever, making the pairwise-`ST`
    /// guarantee unconditional. Groups are slightly less central, queries
    /// slightly less accurate — the ablation experiment E9 measures this.
    Seed,
}

/// Configuration of a base construction run.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseConfig {
    /// The similarity threshold `ST`. When [`Self::length_normalized`] is
    /// true (default), `st` is a *per-sample RMS* threshold: a subsequence
    /// of length `ℓ` joins a group when its raw Euclidean distance to the
    /// representative is at most `(st/2)·√ℓ`. This makes one threshold
    /// meaningful across lengths, which is how ONEX offers a single knob
    /// over a multi-length base. When false, `st` is a raw Euclidean
    /// threshold applied identically at every length.
    pub st: f64,
    /// Smallest subsequence length indexed (≥ 2).
    pub min_len: usize,
    /// Largest subsequence length indexed (inclusive; clamped per series).
    pub max_len: usize,
    /// Stride between candidate start offsets (1 = every subsequence).
    /// Larger strides trade recall for construction time on long series;
    /// the electricity experiments use hour-aligned strides.
    pub stride: usize,
    /// Representative evolution policy.
    pub policy: RepresentativePolicy,
    /// Interpret `st` per-sample (see [`Self::st`]).
    pub length_normalized: bool,
}

impl BaseConfig {
    /// A config with the given threshold and length range, defaults
    /// elsewhere.
    pub fn new(st: f64, min_len: usize, max_len: usize) -> Self {
        BaseConfig {
            st,
            min_len,
            max_len,
            stride: 1,
            policy: RepresentativePolicy::default(),
            length_normalized: true,
        }
    }

    /// The raw-Euclidean group admission radius (`ST/2`, scaled) for
    /// subsequences of length `len`.
    pub fn admission_radius(&self, len: usize) -> f64 {
        let half = self.st / 2.0;
        if self.length_normalized {
            half * (len as f64).sqrt()
        } else {
            half
        }
    }

    /// The raw-Euclidean pairwise guarantee (`ST`, scaled) for length
    /// `len`: two members of one group are within this of each other
    /// (exact under [`RepresentativePolicy::Seed`]).
    pub fn pairwise_threshold(&self, len: usize) -> f64 {
        2.0 * self.admission_radius(len)
    }

    /// Validate the configuration, returning
    /// [`OnexError::InvalidConfig`] describing the first problem found.
    pub fn validate(&self) -> Result<(), OnexError> {
        if !self.st.is_finite() || self.st <= 0.0 {
            return Err(OnexError::invalid_config(format!(
                "similarity threshold must be positive, got {}",
                self.st
            )));
        }
        if self.min_len < 2 {
            return Err(OnexError::invalid_config(format!(
                "min_len must be at least 2, got {}",
                self.min_len
            )));
        }
        if self.max_len < self.min_len {
            return Err(OnexError::invalid_config(format!(
                "max_len ({}) must be at least min_len ({})",
                self.max_len, self.min_len
            )));
        }
        if self.stride == 0 {
            return Err(OnexError::invalid_config("stride must be positive"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_radius_scales_with_length() {
        let cfg = BaseConfig::new(1.0, 2, 100);
        assert!((cfg.admission_radius(4) - 1.0).abs() < 1e-12); // 0.5·√4
        assert!((cfg.admission_radius(100) - 5.0).abs() < 1e-12);
        assert!((cfg.pairwise_threshold(4) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn raw_threshold_ignores_length() {
        let cfg = BaseConfig {
            length_normalized: false,
            ..BaseConfig::new(3.0, 2, 10)
        };
        assert_eq!(cfg.admission_radius(4), 1.5);
        assert_eq!(cfg.admission_radius(100), 1.5);
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(BaseConfig::new(1.0, 4, 8).validate().is_ok());
        assert!(BaseConfig::new(0.0, 4, 8).validate().is_err());
        assert!(BaseConfig::new(-1.0, 4, 8).validate().is_err());
        assert!(BaseConfig::new(f64::NAN, 4, 8).validate().is_err());
        assert!(BaseConfig::new(1.0, 1, 8).validate().is_err());
        assert!(BaseConfig::new(1.0, 8, 4).validate().is_err());
        let zero_stride = BaseConfig {
            stride: 0,
            ..BaseConfig::new(1.0, 4, 8)
        };
        assert!(zero_stride.validate().is_err());
    }
}
