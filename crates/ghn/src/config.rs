//! GHN hyperparameters.

use pddl_telemetry::json::{FromJson, JsonError, JsonValue, JsonWriter, ToJson};

/// Configuration of a GHN-2 instance.
#[derive(Clone, Copy, Debug)]
pub struct GhnConfig {
    /// Node-state / embedding dimensionality `d`. The paper quotes a
    /// fixed-size output of e.g. 32.
    pub hidden_dim: usize,
    /// Number of forward+backward propagation rounds `T` (Eq. 3).
    pub t_passes: usize,
    /// Virtual-edge cutoff `s^(max)` (Eq. 4).
    pub s_max: u32,
    /// Hidden width of the message MLPs.
    pub mlp_hidden: usize,
    /// Apply per-node L2 normalization after each propagation sweep
    /// (GHN-2's stabilization; disable to observe gradient explosion).
    pub normalize: bool,
    /// Hidden width of the decoder head.
    pub decoder_hidden: usize,
}

impl ToJson for GhnConfig {
    fn write_json(&self, w: &mut JsonWriter) {
        w.object()
            .field("hidden_dim", &self.hidden_dim)
            .field("t_passes", &self.t_passes)
            .field("s_max", &self.s_max)
            .field("mlp_hidden", &self.mlp_hidden)
            .field("normalize", &self.normalize)
            .field("decoder_hidden", &self.decoder_hidden)
            .end();
    }
}

impl FromJson for GhnConfig {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        Ok(Self {
            hidden_dim: o.field("hidden_dim")?,
            t_passes: o.field("t_passes")?,
            s_max: o.field("s_max")?,
            mlp_hidden: o.field("mlp_hidden")?,
            normalize: o.field("normalize")?,
            decoder_hidden: o.field("decoder_hidden")?,
        })
    }
}

impl Default for GhnConfig {
    fn default() -> Self {
        Self {
            hidden_dim: 32,
            t_passes: 1,
            s_max: 5,
            mlp_hidden: 32,
            normalize: true,
            decoder_hidden: 48,
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
            normalize: true,
            decoder_hidden: 12,
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
