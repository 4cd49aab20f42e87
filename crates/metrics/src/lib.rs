//! # cagc-metrics — measurement substrate
//!
//! The statistics layer that turns simulator events into the numbers the
//! paper reports:
//!
//! * [`hist::Histogram`] — fixed-memory log-bucket latency histogram
//!   (HDR-style; ≈3 % worst-case relative error) for response times.
//! * [`cdf::Cdf`] — cumulative distributions for Fig. 12.
//! * [`summary::reduction_pct`] — the exact normalization used by
//!   Figs. 9/10/13.
//! * [`table`] — aligned ASCII tables and bar charts for harness output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cdf;
pub mod hist;
pub mod summary;
pub mod table;
pub mod timeseries;

pub use cdf::{Cdf, CdfPoint};
pub use hist::Histogram;
pub use summary::reduction_pct;
pub use table::{bar_chart, Table};
pub use timeseries::{TimeSeries, Window};
