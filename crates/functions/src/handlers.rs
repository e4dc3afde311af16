//! The paper's workload functions as runtime [`Handler`]s.
//!
//! Calibration constants follow DESIGN.md §2: application-specific init
//! and service charges are set so that the vanilla start-up medians land
//! on the paper's Figure 3 (NOOP ≈ 103 ms, Markdown ≈ 100 ms, Image
//! Resizer ≈ 310 ms) and Table 1, while all *structural* costs (RTS,
//! class load, JIT, I/O, restore) flow from the shared cost tables.

use prebake_runtime::http::{Request, Response};
use prebake_runtime::jvm::{Ctx, Handler};
use prebake_sim::cost::per_byte;
use prebake_sim::error::{Errno, SysResult};
use prebake_sim::mem::VirtAddr;
use prebake_sim::time::SimDuration;

use crate::image::{resize_box, working_buffers, Bitmap, CompressedImage};
use crate::markdown::render_page;

/// NOOP framework initialisation (paper Fig. 4: APPINIT ≈ 31 ms).
pub(crate) const NOOP_INIT: SimDuration = SimDuration::from_micros(27_800);
/// NOOP post-restore residual re-initialisation (paper Fig. 3: prebaked
/// NOOP starts in ≈ 62 ms, noticeably above its restore floor).
pub(crate) const NOOP_ATTACH_RESIDUAL: SimDuration = SimDuration::from_micros(11_000);
/// NOOP request service cost.
pub(crate) const NOOP_SERVICE: SimDuration = SimDuration::from_micros(1_000);

/// Markdown framework initialisation beyond library class loading.
pub(crate) const MD_INIT: SimDuration = SimDuration::from_micros(13_000);
/// Markdown post-restore residual.
pub(crate) const MD_ATTACH_RESIDUAL: SimDuration = SimDuration::from_micros(1_500);
/// Markdown fixed service cost per request.
pub(crate) const MD_SERVICE_BASE: SimDuration = SimDuration::from_micros(800);
/// Markdown per-byte render cost (ns per body byte).
pub(crate) const MD_SERVICE_NS_PER_BYTE: f64 = 300.0 / 1024.0 * 1000.0; // 0.3 ms/KiB

/// Image Resizer decode cost per pixel (ns). 3440×1440 ≈ 4.95 Mpx makes
/// decode ≈ 224 ms of the paper's ≈ 238 ms APPINIT.
pub(crate) const IMG_DECODE_NS_PER_PIXEL: f64 = 45.2;
/// Image Resizer framework initialisation.
pub(crate) const IMG_INIT: SimDuration = SimDuration::from_micros(3_000);
/// Image Resizer post-restore residual (re-opening codecs and temp
/// files; calibrated to the paper's ≈87 ms prebaked start).
pub(crate) const IMG_ATTACH_RESIDUAL: SimDuration = SimDuration::from_micros(9_500);
/// Image Resizer fixed service cost per request (scaling 4.95 Mpx down
/// to 10 %).
pub(crate) const IMG_SERVICE: SimDuration = SimDuration::from_micros(11_000);
/// Number of full-size derived working buffers the decoder keeps.
pub(crate) const IMG_WORK_BUFFERS: usize = 4;
/// Extra decoder scratch bytes (tail buffer), sized so the snapshot
/// lands on the paper's 99.2 MB.
pub(crate) const IMG_SCRATCH_BYTES: usize = 10_900_000;

/// Synthetic-function framework initialisation.
pub(crate) const SYNTH_INIT: SimDuration = SimDuration::from_micros(8_000);
/// Synthetic-function service cost per request (after loading).
pub(crate) const SYNTH_SERVICE: SimDuration = SimDuration::from_micros(400);

// ------------------------------------------------------------------ NOOP

/// The paper's "do-nothing" function: returns success to every request.
#[derive(Debug, Default)]
pub(crate) struct NoopHandler {
    classes: Vec<String>,
}

impl NoopHandler {
    /// Creates the handler with its (tiny) eager class list.
    pub(crate) fn new(classes: Vec<String>) -> NoopHandler {
        NoopHandler { classes }
    }
}

impl Handler for NoopHandler {
    fn name(&self) -> &str {
        "noop"
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) -> SysResult<()> {
        for class in self.classes.clone() {
            ctx.load_class(&class)?;
        }
        ctx.charge(NOOP_INIT);
        Ok(())
    }

    fn attach(&mut self, ctx: &mut Ctx<'_>) -> SysResult<()> {
        ctx.charge(NOOP_ATTACH_RESIDUAL);
        Ok(())
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, _req: &Request) -> SysResult<Response> {
        ctx.charge(NOOP_SERVICE);
        Ok(Response::ok(&b"ok"[..]))
    }
}

// -------------------------------------------------------------- Markdown

/// The Markdown Render function: converts the request body (a Markdown
/// document) into a full HTML page.
#[derive(Debug, Default)]
pub(crate) struct MarkdownHandler {
    classes: Vec<String>,
}

impl MarkdownHandler {
    /// Creates the handler with its markdown-library class list.
    pub(crate) fn new(classes: Vec<String>) -> MarkdownHandler {
        MarkdownHandler { classes }
    }
}

impl Handler for MarkdownHandler {
    fn name(&self) -> &str {
        "markdown-render"
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) -> SysResult<()> {
        for class in self.classes.clone() {
            ctx.load_class(&class)?;
        }
        ctx.charge(MD_INIT);
        Ok(())
    }

    fn attach(&mut self, ctx: &mut Ctx<'_>) -> SysResult<()> {
        ctx.charge(MD_ATTACH_RESIDUAL);
        Ok(())
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, req: &Request) -> SysResult<Response> {
        ctx.charge(MD_SERVICE_BASE);
        ctx.charge(per_byte(req.body.len() as u64, MD_SERVICE_NS_PER_BYTE));
        let text = std::str::from_utf8(&req.body).map_err(|_| Errno::Einval)?;
        let html = render_page("Rendered", text);
        Ok(Response::ok(html.into_bytes()))
    }
}

// ---------------------------------------------------------- Image Resizer

/// Blob layout: width u32 | height u32 | bitmap guest address u64.
fn encode_img_blob(width: u32, height: u32, addr: VirtAddr) -> Vec<u8> {
    let mut blob = Vec::with_capacity(16);
    blob.extend_from_slice(&width.to_be_bytes());
    blob.extend_from_slice(&height.to_be_bytes());
    blob.extend_from_slice(&addr.0.to_be_bytes());
    blob
}

fn decode_img_blob(blob: &[u8]) -> SysResult<(u32, u32, VirtAddr)> {
    if blob.len() != 16 {
        return Err(Errno::Einval);
    }
    Ok((
        u32::from_be_bytes(blob[0..4].try_into().unwrap()),
        u32::from_be_bytes(blob[4..8].try_into().unwrap()),
        VirtAddr(u64::from_be_bytes(blob[8..16].try_into().unwrap())),
    ))
}

/// The Image Resizer: decodes a ~1 MB 3440×1440 source at start-up into
/// guest heap buffers (the paper's 99.2 MB snapshot) and scales it to
/// 10 % per request with a real box filter.
#[derive(Debug)]
pub(crate) struct ImageResizerHandler {
    classes: Vec<String>,
    source_path: String,
}

impl ImageResizerHandler {
    /// Creates the handler; `source_path` is the guest path of the
    /// compressed source image.
    pub(crate) fn new(classes: Vec<String>, source_path: impl Into<String>) -> ImageResizerHandler {
        ImageResizerHandler {
            classes,
            source_path: source_path.into(),
        }
    }
}

impl Handler for ImageResizerHandler {
    fn name(&self) -> &str {
        "image-resizer"
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) -> SysResult<()> {
        for class in self.classes.clone() {
            ctx.load_class(&class)?;
        }
        ctx.charge(IMG_INIT);

        // Read + decode the source (the paper's "loads a 1MB image").
        let compressed_bytes = ctx.read_file(&self.source_path)?;
        let compressed = CompressedImage::parse(&compressed_bytes).map_err(|_| Errno::Einval)?;
        let pixels = compressed.width as u64 * compressed.height as u64;
        ctx.charge(per_byte(pixels, IMG_DECODE_NS_PER_PIXEL));
        let bitmap = compressed.decode();

        // Decoded bitmap lives in the guest heap (captured by snapshots).
        let bmp_addr = ctx.alloc_heap(bitmap.data.len() as u64)?;
        ctx.write_guest(bmp_addr, &bitmap.data)?;

        // Decoder working set: channel planes + scratch.
        for buf in working_buffers(&bitmap, IMG_WORK_BUFFERS) {
            let addr = ctx.alloc_heap(buf.len() as u64)?;
            ctx.write_guest(addr, &buf)?;
        }
        let scratch: Vec<u8> = bitmap
            .data
            .iter()
            .take(IMG_SCRATCH_BYTES)
            .map(|&b| b | 1)
            .collect();
        let scratch_addr = ctx.alloc_heap(scratch.len() as u64)?;
        ctx.write_guest(scratch_addr, &scratch)?;

        ctx.set_app_blob(encode_img_blob(bitmap.width, bitmap.height, bmp_addr));
        Ok(())
    }

    fn attach(&mut self, ctx: &mut Ctx<'_>) -> SysResult<()> {
        // Re-bind to the decoded bitmap the snapshot carried.
        let (w, h, addr) = decode_img_blob(ctx.app_blob())?;
        if w == 0 || h == 0 {
            return Err(Errno::Einval);
        }
        // Sanity-probe the first pixels.
        let head = ctx.read_guest(addr, 16)?;
        if head.iter().all(|&b| b == 0) {
            return Err(Errno::Efault);
        }
        ctx.charge(IMG_ATTACH_RESIDUAL);
        Ok(())
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, _req: &Request) -> SysResult<Response> {
        let (w, h, addr) = decode_img_blob(ctx.app_blob())?;
        let data = ctx.read_guest(addr, 3 * w as u64 * h as u64)?;
        let bitmap = Bitmap {
            width: w,
            height: h,
            data,
        };
        ctx.charge(IMG_SERVICE);
        let scaled = resize_box(&bitmap, 0.1);
        Ok(Response::ok(scaled.encode()))
    }
}

// ---------------------------------------------------------------- Synthetic

/// The synthetic function: loads its entire class set on first
/// invocation, exactly like the paper's "loads a predefined number of
/// classes when invoked".
#[derive(Debug)]
pub(crate) struct SyntheticHandler {
    name: String,
    classes: Vec<String>,
}

impl SyntheticHandler {
    /// Creates the handler over the class-name list of its archive.
    pub(crate) fn new(name: impl Into<String>, classes: Vec<String>) -> SyntheticHandler {
        SyntheticHandler {
            name: name.into(),
            classes,
        }
    }
}

impl Handler for SyntheticHandler {
    fn name(&self) -> &str {
        &self.name
    }

    fn init(&mut self, ctx: &mut Ctx<'_>) -> SysResult<()> {
        ctx.charge(SYNTH_INIT);
        Ok(())
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, _req: &Request) -> SysResult<Response> {
        for class in self.classes.clone() {
            ctx.load_class(&class)?;
        }
        ctx.charge(SYNTH_SERVICE);
        Ok(Response::ok(&b"loaded"[..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn img_blob_roundtrip() {
        let blob = encode_img_blob(3440, 1440, VirtAddr(0x1234_5678));
        let (w, h, a) = decode_img_blob(&blob).unwrap();
        assert_eq!((w, h, a), (3440, 1440, VirtAddr(0x1234_5678)));
        assert_eq!(decode_img_blob(&blob[..10]).unwrap_err(), Errno::Einval);
    }

    #[test]
    fn calibration_constants_sane() {
        // APPINIT-ish sums must be in the paper's ballpark; the precise
        // end-to-end check lives in prebake-core's calibration tests.
        let noop_init_ms = std::hint::black_box(NOOP_INIT).as_millis_f64();
        assert!(noop_init_ms < 35.0);
        let decode_ms = std::hint::black_box(IMG_DECODE_NS_PER_PIXEL) * 3440.0 * 1440.0 / 1e6;
        assert!(decode_ms > 150.0);
        assert!(std::hint::black_box(MD_SERVICE_NS_PER_BYTE) > 0.0);
    }
}
