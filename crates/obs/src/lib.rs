//! # mei-obs — observability for the mei training/serving stack
//!
//! This crate provides the two pieces the instrumented loops need:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and fixed-bucket
//!   histograms backed by atomics, cheap to update from rayon workers;
//! * [`TrainObserver`] — a sink trait for per-epoch and per-eval
//!   records, with [`NullObserver`] (default, near-zero overhead),
//!   [`ConsoleObserver`], [`JsonlObserver`], and [`FanoutObserver`]
//!   implementations.
//!
//! Records serialize through the in-crate [`json`] module (the build
//! environment is hermetic, so there is no serde): one compact,
//! field-order-stable JSON object per line. `EpochRecord::from_json`
//! et al. parse those lines back, which the round-trip and determinism
//! tests rely on.
//!
//! # Example
//!
//! ```
//! use mei_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::default();
//! registry.counter("epochs").inc();
//! registry.counter("examples").add(128);
//! assert_eq!(registry.counter("epochs").get(), 1);
//! assert_eq!(registry.counter("examples").get(), 128);
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod observer;
pub mod record;

pub use json::JsonValue;
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use observer::{ConsoleObserver, FanoutObserver, JsonlObserver, NullObserver, TrainObserver};
pub use record::{EpochRecord, EvalRecord, PhaseBreakdown, RankHistogram, RunSummary};
