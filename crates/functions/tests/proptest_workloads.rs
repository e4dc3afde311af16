//! Property tests for the workload implementations.

use proptest::prelude::*;

use prebake_functions::image::{resize_box, Bitmap, CompressedImage};
use prebake_functions::markdown::{escape_html, render};

proptest! {
    /// The renderer never panics and never loops on arbitrary input
    /// (a prior version looped on `#######`-style lines).
    #[test]
    fn markdown_never_panics(input in "[ -~\n]{0,2000}") {
        let _ = render(&input);
    }

    /// Every line of input contributes: rendering consumes the whole
    /// document (output non-empty whenever input has a non-blank line).
    #[test]
    fn markdown_consumes_nonblank_input(word in "[a-zA-Z0-9]{1,40}") {
        let html = render(&word);
        prop_assert!(html.contains(&word), "{word} lost in {html}");
    }

    /// Escaping is complete: no raw specials survive in escaped text.
    #[test]
    fn escape_html_is_complete(input in "[ -~]{0,500}") {
        let escaped = escape_html(&input);
        // After removing the escape sequences themselves, no specials remain.
        let stripped = escaped
            .replace("&amp;", "")
            .replace("&lt;", "")
            .replace("&gt;", "")
            .replace("&quot;", "")
            .replace("&#39;", "");
        prop_assert!(!stripped.contains('<'));
        prop_assert!(!stripped.contains('>'));
        prop_assert!(!stripped.contains('&'));
        prop_assert!(!stripped.contains('"'));
        prop_assert!(!stripped.contains('\''));
    }

    /// Plain paragraphs render with proper tags and escaped content.
    #[test]
    fn paragraphs_are_wrapped(text in "[a-zA-Z0-9 ]{1,120}") {
        let trimmed = text.trim();
        prop_assume!(!trimmed.is_empty());
        let html = render(&text);
        prop_assert!(html.starts_with("<p>"), "{html}");
        prop_assert!(html.trim_end().ends_with("</p>"), "{html}");
    }

    /// Compressed images round-trip and decode deterministically for
    /// arbitrary dimensions.
    #[test]
    fn compressed_image_roundtrip(w in 1u32..128, h in 1u32..128, seed in any::<u64>()) {
        let img = CompressedImage::synthetic(w, h, seed, 512);
        let parsed = CompressedImage::parse(&img.encode()).unwrap();
        prop_assert_eq!(&parsed, &img);
        let a = img.decode();
        let b = parsed.decode();
        prop_assert_eq!(a, b);
    }

    /// Box resize output dimensions follow the scale and every channel
    /// average stays inside the source's range.
    #[test]
    fn resize_box_bounds(w in 2u32..96, h in 2u32..96, seed in any::<u64>(), scale in 0.05f64..1.0) {
        let bmp = CompressedImage::synthetic(w, h, seed, 256).decode();
        let out = resize_box(&bmp, scale);
        prop_assert!(out.width >= 1 && out.width <= w);
        prop_assert!(out.height >= 1 && out.height <= h);
        let min = *bmp.data.iter().min().unwrap();
        let max = *bmp.data.iter().max().unwrap();
        prop_assert!(out.data.iter().all(|&b| b >= min && b <= max));
    }

    /// Averaging preserves mean intensity within quantisation error.
    #[test]
    fn resize_box_preserves_luma(w in 8u32..64, h in 8u32..64, seed in any::<u64>()) {
        let bmp = CompressedImage::synthetic(w, h, seed, 256).decode();
        let out = resize_box(&bmp, 0.5);
        let mean = |b: &Bitmap| b.data.iter().map(|&v| v as f64).sum::<f64>() / b.data.len() as f64;
        prop_assert!((mean(&out) - mean(&bmp)).abs() < 6.0);
    }

    /// Bitmap containers round-trip arbitrary pixel data.
    #[test]
    fn bitmap_roundtrip(w in 1u32..32, h in 1u32..32, fill in any::<u8>()) {
        let mut bmp = Bitmap::new(w, h);
        bmp.data.fill(fill);
        let parsed = Bitmap::parse(&bmp.encode()).unwrap();
        prop_assert_eq!(parsed, bmp);
    }
}
