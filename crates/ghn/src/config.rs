//! GHN hyperparameters.

/// Configuration of a GHN-2 instance: the encoder's shape. The trainer's
/// decoder head derives its width from `hidden_dim`.
#[derive(Clone, Copy, Debug)]
pub struct GhnConfig {
    /// Node-state / embedding dimensionality `d`. The paper quotes a
    /// fixed-size output of e.g. 32.
    pub hidden_dim: usize,
    /// Number of forward+backward propagation rounds `T` (Eq. 3), each
    /// ending with an L2 normalisation of every node state.
    pub t_passes: usize,
    /// Virtual-edge cutoff `s^(max)` (Eq. 4).
    pub s_max: u32,
    /// Hidden width of the message MLPs.
    pub mlp_hidden: usize,
}

pddl_telemetry::json_struct!(GhnConfig { hidden_dim, t_passes, s_max, mlp_hidden });

impl Default for GhnConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 32,
            t_passes: 1,
            s_max: 5,
            mlp_hidden: 32,
        }
    }
}

impl GhnConfig {
    /// Small configuration for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            hidden_dim: 8,
            t_passes: 1,
            s_max: 3,
            mlp_hidden: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_dimension() {
        assert_eq!(GhnConfig::default().hidden_dim, 32);
    }

    #[test]
    fn json_round_trip() {
        let c = GhnConfig::default();
        let s = pddl_telemetry::json::to_string(&c).unwrap();
        let c2: GhnConfig = pddl_telemetry::json::from_str(&s).unwrap();
        assert_eq!(c2.hidden_dim, c.hidden_dim);
        assert_eq!(c2.s_max, c.s_max);
    }
}
