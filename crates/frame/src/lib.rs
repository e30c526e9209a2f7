//! # coterie-frame
//!
//! Frame buffers and image-quality metrics for the Coterie reproduction.
//!
//! The paper quantifies frame commonality with Structural Similarity
//! (SSIM, Wang et al. 2004), the de-facto perceptual similarity metric
//! adopted from Kahawai and Furion: "an SSIM value higher than 0.90
//! indicates that the distorted frame well approximates the original
//! high-quality frame" (§4.1). This crate provides:
//!
//! * [`LumaFrame`] — a single-channel floating-point image buffer used by
//!   the software renderer and codec,
//! * [`ssim`] — windowed SSIM with the standard 11×11 Gaussian weighting,
//! * [`stats`] — CDF and summary helpers used by every similarity
//!   experiment (Figures 1, 2, 5, 7).
//!
//! # Example
//!
//! ```
//! use coterie_frame::{LumaFrame, ssim};
//!
//! let a = LumaFrame::filled(64, 32, 0.5);
//! let mut b = a.clone();
//! b.set(3, 3, 0.9);
//! let s = ssim(&a, &a);
//! assert!((s - 1.0).abs() < 1e-9); // identical frames
//! assert!(ssim(&a, &b) < 1.0);     // perturbed frame
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod image_io;
pub mod luma;
pub mod similarity;
pub mod stats;

pub use image_io::{save_pgm, write_pgm};
pub use luma::LumaFrame;
pub use similarity::{mse, psnr, ssim, ssim_map, ssim_with, ssim_with_simd, SsimOptions};
pub use stats::{Cdf, Summary};
