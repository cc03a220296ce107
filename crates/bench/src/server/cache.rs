//! The daemon's persistent result cache: the library's one result store
//! ([`helios::ResultCache`], keyed by [`helios::CellKey`]), re-exported at
//! its historical path.

pub use helios::{CellKey, ResultCache};
