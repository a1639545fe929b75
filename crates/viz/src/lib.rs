//! # domatic-viz
//!
//! Dependency-free SVG rendering for the `domatic` workspace: topology
//! figures with partition coloring. Used by the CLI's `render` subcommand
//! and handy for papers/demos.
//!
//! ```
//! use domatic_graph::generators::regular::cycle;
//! use domatic_graph::NodeSet;
//! use domatic_viz::layout::circular;
//! use domatic_viz::topology::{render_topology, TopologyStyle};
//!
//! let g = cycle(9);
//! let classes: Vec<NodeSet> = (0..3)
//!     .map(|r| NodeSet::from_iter(9, (0..9u32).filter(|v| v % 3 == r)))
//!     .collect();
//! let svg = render_topology(&g, &circular(9), &classes, &TopologyStyle::default());
//! assert!(svg.starts_with("<svg"));
//! ```

pub mod layout;
pub mod svg;
pub mod topology;

pub use layout::{circular, from_positions, spring, Layout};
pub use svg::{class_color, SvgDoc, PALETTE};
pub use topology::{render_topology, TopologyStyle};
