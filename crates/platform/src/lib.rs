#![doc = include_str!("../README.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agents;
pub mod campaign;
pub mod checkpoint;
pub mod config;
pub mod executor;
pub mod experiments;
pub mod platform;
pub mod probes;
pub mod report;
pub mod scenario;

pub use agents::{default_registry, AgentCtx, AgentRegistry, BoxedPortAgent, PortAgent};
pub use campaign::{run_seed, Campaign, CampaignResult};
pub use checkpoint::{FaultPlan, Journal, JournalReplay};
pub use config::{BusSetup, FabricTopology, PlatformConfig};
pub use platform::{
    run_once, run_once_with, CoreLoad, DriveMode, RunResult, RunSpec, Scenario, StopCondition,
};
pub use probes::{WindowedFairness, WindowedFairnessProbe};
pub use report::{
    run_scenario, run_scenario_controlled, CellOutcome, CellReport, RunControls, ScenarioReport,
};
pub use scenario::{CheckpointSpec, ScenarioDef, ScenarioError};
