//! PGM (portable graymap) image export.
//!
//! Luma frames can be written as binary PGM files — viewable with any
//! image tool — so renders, near/far splits and codec artifacts can be
//! inspected by eye. Used by the `render_gallery` example.

use crate::luma::LumaFrame;
use std::io::{self, Write};
use std::path::Path;

/// Serializes a frame as binary PGM (P5) into a writer.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_pgm<W: Write>(frame: &LumaFrame, mut writer: W) -> io::Result<()> {
    writeln!(writer, "P5")?;
    writeln!(writer, "{} {}", frame.width(), frame.height())?;
    writeln!(writer, "255")?;
    writer.write_all(&frame.to_u8())?;
    Ok(())
}

/// Writes a frame to a `.pgm` file.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn save_pgm<P: AsRef<Path>>(frame: &LumaFrame, path: P) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    write_pgm(frame, io::BufWriter::new(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_is_standard() {
        let f = LumaFrame::filled(4, 2, 0.5);
        let mut buf = Vec::new();
        write_pgm(&f, &mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf[..12]);
        assert!(text.starts_with("P5\n4 2\n255"));
        assert_eq!(buf.len(), "P5\n4 2\n255\n".len() + 8);
        assert_eq!(buf["P5\n4 2\n255\n".len()..], f.to_u8()[..]);
    }

    #[test]
    fn save_and_load_file() {
        let dir = std::env::temp_dir().join("coterie_pgm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frame.pgm");
        let f = LumaFrame::from_fn(16, 16, |x, _| x as f32 / 15.0);
        save_pgm(&f, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mut written = Vec::new();
        write_pgm(&f, &mut written).unwrap();
        assert_eq!(bytes, written);
        let _ = std::fs::remove_file(&path);
    }
}
