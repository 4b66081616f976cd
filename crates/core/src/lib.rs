#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod credit;
pub mod filter;
pub mod signals;

pub use config::{BandwidthWeights, CbaError, CreditConfig};
pub use cost::HardwareCost;
pub use credit::CreditCounter;
pub use filter::{BusFilter, CreditFilter, Mode};
pub use signals::SignalTable;
