//! Re-export of the JSON document type, which lives in [`obs::json`] with
//! the workspace's one string escaper and parser, so that every layer
//! (the serve crate in particular) writes and reads JSON through one
//! module. Existing `report_gen::json::Json` users keep working
//! unchanged.

pub use obs::json::*;
