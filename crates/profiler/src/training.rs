//! Training the per-kind NNLS prediction models and evaluating them —
//! the Table III pipeline.

use crate::dataset::{build_dataset, LatencySource};
use lp_graph::features::{features_for, Platform};
use lp_graph::{ComputationGraph, ModelKey, NodeKind};
use lp_linalg::{mape, rmse, train_test_split, LinearModel, Matrix};
use lp_sim::SimDuration;
use lp_tensor::TensorDesc;
use std::collections::HashMap;

/// Accuracy report for one trained model (a Table III row).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelReport {
    /// The node kind.
    pub key: ModelKey,
    /// RMSE on held-out data, microseconds.
    pub rmse_us: f64,
    /// MAPE on held-out data, percent.
    pub mape_pct: f64,
    /// Training-set size.
    pub n_train: usize,
    /// Test-set size.
    pub n_test: usize,
}

/// The full per-platform model bundle (`M_user` or `M_edge`), stored on
/// both sides in the paper's deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionModels {
    /// Which platform these models predict.
    pub platform: Platform,
    // Stored as pairs (12 entries) so the bundle serialises to plain JSON.
    models: Vec<(ModelKey, LinearModel)>,
}

impl PredictionModels {
    /// Builds a bundle from trained per-kind models.
    #[must_use]
    pub fn new(platform: Platform, models: HashMap<ModelKey, LinearModel>) -> Self {
        let mut models: Vec<(ModelKey, LinearModel)> = models.into_iter().collect();
        models.sort_by_key(|(k, _)| format!("{k}"));
        Self { platform, models }
    }

    /// Predicts one node's execution time; structural nodes (and kinds
    /// without a trained model) predict zero, per §IV.
    #[must_use]
    pub fn predict(&self, kind: &NodeKind, input: &TensorDesc, output: &TensorDesc) -> SimDuration {
        let Some(key) = kind.model_key() else {
            return SimDuration::ZERO;
        };
        let Some(model) = self.model(key) else {
            return SimDuration::ZERO;
        };
        let fv = features_for(kind, input, output, self.platform);
        SimDuration::from_micros_f64(model.predict(&fv.values).max(0.0))
    }

    /// Predicts the per-node times of a whole graph, in topological order.
    #[must_use]
    pub fn predict_graph(&self, graph: &ComputationGraph) -> Vec<SimDuration> {
        graph
            .nodes()
            .iter()
            .map(|n| self.predict(&n.kind, graph.value_desc(n.inputs[0]), &n.output))
            .collect()
    }

    /// The predicted suffix times of a graph: entry `p` is the predicted
    /// time of the nodes after cut `p`, `Σ_{i≥p}` of
    /// [`PredictionModels::predict_graph`], for `p` in `0..=n`; entry `n`
    /// is zero. Built once per graph, it answers every cut's suffix
    /// prediction with a lookup.
    #[must_use]
    pub fn suffix_times(&self, graph: &ComputationGraph) -> Vec<SimDuration> {
        let mut table = self.predict_graph(graph);
        table.push(SimDuration::ZERO);
        for p in (0..graph.len()).rev() {
            table[p] = table[p] + table[p + 1];
        }
        table
    }

    /// The trained model for a kind, if present.
    #[must_use]
    pub fn model(&self, key: ModelKey) -> Option<&LinearModel> {
        self.models.iter().find(|(k, _)| *k == key).map(|(_, m)| m)
    }

    /// Serialises the bundle to JSON (the paper stores trained models on
    /// both the device and the server).
    #[must_use]
    pub fn to_json(&self) -> String {
        use lp_json::Json;
        Json::Obj(vec![
            ("platform".to_string(), Json::Str(self.platform.to_string())),
            (
                "models".to_string(),
                Json::Arr(
                    self.models
                        .iter()
                        .map(|(key, model)| {
                            Json::Obj(vec![
                                ("key".to_string(), Json::Str(key.to_string())),
                                ("model".to_string(), model.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
        .to_string_pretty()
    }

    /// Loads a bundle from JSON.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntactic or structural problem.
    pub fn from_json(s: &str) -> Result<Self, String> {
        use lp_json::Json;
        let doc = Json::parse(s).map_err(|e| e.to_string())?;
        let platform_name = doc
            .get("platform")
            .and_then(Json::as_str)
            .ok_or("expected a \"platform\" string")?;
        let platform = [Platform::EdgeServer, Platform::UserDevice]
            .into_iter()
            .find(|p| p.to_string() == platform_name)
            .ok_or_else(|| format!("unknown platform {platform_name:?}"))?;
        let entries = doc
            .get("models")
            .and_then(Json::as_arr)
            .ok_or("expected a \"models\" array")?;
        let mut models = Vec::with_capacity(entries.len());
        for entry in entries {
            let key_name = entry
                .get("key")
                .and_then(Json::as_str)
                .ok_or("expected a \"key\" string in each model entry")?;
            let key = ModelKey::all()
                .into_iter()
                .find(|k| k.to_string() == key_name)
                .ok_or_else(|| format!("unknown model key {key_name:?}"))?;
            let value = entry
                .get("model")
                .ok_or("expected a \"model\" object in each model entry")?;
            let model =
                LinearModel::from_json(value).map_err(|e| format!("model {key_name:?}: {e}"))?;
            models.push((key, model));
        }
        Ok(Self { platform, models })
    }
}

/// Trains models for every node kind on one platform and reports held-out
/// accuracy — the complete §III-B pipeline, producing Table III.
///
/// `samples_per_kind` controls dataset size (the tests use a few hundred;
/// the Table III binary uses more).
pub fn train_all<S: LatencySource>(
    source: &mut S,
    samples_per_kind: usize,
    seed: u64,
) -> (PredictionModels, Vec<ModelReport>) {
    let platform = source.platform();
    let mut models = HashMap::new();
    let mut reports = Vec::new();
    for (i, key) in ModelKey::all().into_iter().enumerate() {
        let ds = build_dataset(key, samples_per_kind, source, seed.wrapping_add(i as u64));
        let (train_idx, test_idx) = train_test_split(ds.times_us.len(), 0.25, seed ^ 0xA5A5);
        let train_x = select_rows(&ds.features, &train_idx);
        let train_y: Vec<f64> = train_idx.iter().map(|&i| ds.times_us[i]).collect();
        let test_x = select_rows(&ds.features, &test_idx);
        let test_y: Vec<f64> = test_idx.iter().map(|&i| ds.times_us[i]).collect();
        let model = LinearModel::fit_nnls(&train_x, &train_y);
        let pred = model.predict_batch(&test_x);
        reports.push(ModelReport {
            key,
            rmse_us: rmse(&test_y, &pred),
            mape_pct: mape(&test_y, &pred),
            n_train: train_idx.len(),
            n_test: test_idx.len(),
        });
        models.insert(key, model);
    }
    (PredictionModels::new(platform, models), reports)
}

fn select_rows(m: &Matrix, idx: &[usize]) -> Matrix {
    let rows: Vec<Vec<f64>> = idx.iter().map(|&i| m.row(i).to_vec()).collect();
    Matrix::from_rows(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DeviceSource, EdgeSource};
    use lp_hardware::{DeviceModel, GpuModel};
    use lp_models::alexnet;

    fn edge_models(n: usize) -> (PredictionModels, Vec<ModelReport>) {
        let mut src = EdgeSource::new(GpuModel::default(), 11);
        train_all(&mut src, n, 100)
    }

    fn device_models(n: usize) -> (PredictionModels, Vec<ModelReport>) {
        let mut src = DeviceSource::new(DeviceModel::default(), 12);
        train_all(&mut src, n, 200)
    }

    #[test]
    fn trains_a_model_per_kind() {
        let (models, reports) = edge_models(120);
        assert_eq!(reports.len(), ModelKey::all().len());
        for key in ModelKey::all() {
            assert!(models.model(key).is_some(), "{key}");
        }
    }

    #[test]
    fn accuracy_is_usable_for_ranking() {
        // Table III MAPEs range 5%-42%; require every kind under 60% and
        // the simple element-wise kinds under 30% (the exact figure is
        // RNG-stream dependent; it sits at 26-31% across seeds).
        for (models, reports) in [edge_models(250), device_models(250)] {
            for r in &reports {
                assert!(
                    r.mape_pct < 60.0,
                    "{:?} {}: MAPE {:.1}%",
                    models.platform,
                    r.key,
                    r.mape_pct
                );
            }
            let ew = reports
                .iter()
                .find(|r| r.key == ModelKey::ElemwiseAdd)
                .unwrap();
            assert!(
                ew.mape_pct < 30.0,
                "{:?} elemwise MAPE {:.1}%",
                models.platform,
                ew.mape_pct
            );
        }
    }

    #[test]
    fn graph_prediction_tracks_simulated_time() {
        let (models, _) = device_models(250);
        let g = alexnet(1);
        let dev = DeviceModel::default();
        let predicted = models.suffix_times(&g)[0];
        let actual = dev.graph_time(&g);
        let ratio = predicted.as_secs_f64() / actual.as_secs_f64();
        assert!(
            (0.5..2.0).contains(&ratio),
            "predicted {predicted} vs actual {actual} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn structural_nodes_predict_zero() {
        let (models, _) = edge_models(60);
        let g = alexnet(1);
        let per_node = models.predict_graph(&g);
        // L19 is Flatten.
        assert_eq!(per_node[18], SimDuration::ZERO);
    }

    #[test]
    fn json_round_trip() {
        let (models, _) = edge_models(60);
        let json = models.to_json();
        let back = PredictionModels::from_json(&json).unwrap();
        assert_eq!(back, models);
    }

    #[test]
    fn suffix_times_sum_nodes() {
        let (models, _) = edge_models(60);
        let g = alexnet(1);
        let per_node = models.predict_graph(&g);
        let suffix = models.suffix_times(&g);
        assert_eq!(suffix.len(), g.len() + 1);
        let total: SimDuration = per_node.iter().copied().sum();
        assert_eq!(suffix[0], total);
        let head: SimDuration = per_node[..8].iter().copied().sum();
        assert_eq!(head + suffix[8], total);
        for p in 0..g.len() {
            assert_eq!(suffix[p], per_node[p] + suffix[p + 1], "cut {p}");
        }
        assert_eq!(suffix[g.len()], SimDuration::ZERO);
    }
}
