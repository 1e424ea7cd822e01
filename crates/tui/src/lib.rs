//! # re2x-tui — live terminal dashboard over the `re2x-obs` event bus
//!
//! A zero-dependency ANSI renderer (no ratatui, no crossterm) for
//! watching sessions and the serve layer run: per-phase span self-time
//! trees (reusing the obs flame-tree renderer), cache hit/miss/eviction
//! rates, endpoint latency quantiles, per-tenant serve panels (active
//! sessions, queue wait p50/p99, budget exhaustions, worker panics), and
//! shard skew when sharded.
//!
//! The design rule that makes it testable: **rendering is a pure
//! function** [`render()`]`(&DashboardState) -> Frame`. The state is a fold
//! over [`re2x_obs::BusEvent`]s ([`DashboardState::apply`]); the frame's
//! clock is the largest event timestamp, never `Instant::now` — the
//! `no-wallclock` lint enforces this crate-wide. Golden tests pin frames
//! byte-for-byte, and `repro watch` replays recorded JSONL logs offline
//! through [`replay`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod render;
pub mod replay;
pub mod state;

pub use frame::{Frame, Style};
pub use render::{render, render_with, RenderOptions};
pub use replay::{frames, render_script, FRAME_INTERVAL};
pub use state::{parse_labeled, DashboardState, ShardPanel, TenantPanel};
