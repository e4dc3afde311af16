//! A real Markdown → HTML renderer.
//!
//! The paper's second workload "converts a markdown to an HTML page"
//! (embedding a project README in each request). This is a from-scratch
//! renderer covering the constructs such documents use: ATX headings,
//! paragraphs, fenced code blocks, unordered/ordered lists, blockquotes,
//! horizontal rules, and the inline span grammar (emphasis, strong, code,
//! links), with full HTML escaping.

/// Escapes HTML-special characters in text content.
pub fn escape_html(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            other => out.push(other),
        }
    }
    out
}

/// Renders inline spans: `` `code` ``, `**strong**`, `*em*`,
/// `[text](url)`; everything else is escaped text.
fn render_inline(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len() + 16);
    let mut i = 0usize;

    while i < chars.len() {
        match chars[i] {
            '`' => {
                // inline code: find the closing backtick
                if let Some(end) = find_char(&chars, i + 1, '`') {
                    let code: String = chars[i + 1..end].iter().collect();
                    out.push_str("<code>");
                    out.push_str(&escape_html(&code));
                    out.push_str("</code>");
                    i = end + 1;
                } else {
                    out.push('`');
                    i += 1;
                }
            }
            '*' => {
                let strong = i + 1 < chars.len() && chars[i + 1] == '*';
                if strong {
                    if let Some(end) = find_pair(&chars, i + 2) {
                        let inner: String = chars[i + 2..end].iter().collect();
                        out.push_str("<strong>");
                        out.push_str(&render_inline(&inner));
                        out.push_str("</strong>");
                        i = end + 2;
                        continue;
                    }
                } else if let Some(end) = find_char(&chars, i + 1, '*') {
                    let inner: String = chars[i + 1..end].iter().collect();
                    if !inner.is_empty() {
                        out.push_str("<em>");
                        out.push_str(&render_inline(&inner));
                        out.push_str("</em>");
                        i = end + 1;
                        continue;
                    }
                }
                out.push('*');
                i += 1;
            }
            '[' => {
                // [text](url)
                if let Some(close) = find_char(&chars, i + 1, ']') {
                    if close + 1 < chars.len() && chars[close + 1] == '(' {
                        if let Some(paren) = find_char(&chars, close + 2, ')') {
                            let label: String = chars[i + 1..close].iter().collect();
                            let url: String = chars[close + 2..paren].iter().collect();
                            out.push_str("<a href=\"");
                            out.push_str(&escape_html(&url));
                            out.push_str("\">");
                            out.push_str(&render_inline(&label));
                            out.push_str("</a>");
                            i = paren + 1;
                            continue;
                        }
                    }
                }
                out.push('[');
                i += 1;
            }
            ch => {
                match ch {
                    '&' => out.push_str("&amp;"),
                    '<' => out.push_str("&lt;"),
                    '>' => out.push_str("&gt;"),
                    '"' => out.push_str("&quot;"),
                    '\'' => out.push_str("&#39;"),
                    other => out.push(other),
                }
                i += 1;
            }
        }
    }
    out
}

fn find_char(chars: &[char], from: usize, needle: char) -> Option<usize> {
    chars[from..]
        .iter()
        .position(|&c| c == needle)
        .map(|p| p + from)
}

/// Finds the next `**` starting at `from`.
fn find_pair(chars: &[char], from: usize) -> Option<usize> {
    let mut i = from;
    while i + 1 < chars.len() {
        if chars[i] == '*' && chars[i + 1] == '*' {
            return Some(i);
        }
        i += 1;
    }
    None
}

#[derive(Debug, PartialEq, Eq)]
enum ListKind {
    Unordered,
    Ordered,
}

/// Renders a Markdown document to an HTML fragment.
///
/// # Examples
///
/// ```
/// use prebake_functions::markdown::render;
///
/// let html = render("# Title\n\nHello **world**.");
/// assert_eq!(html, "<h1>Title</h1>\n<p>Hello <strong>world</strong>.</p>\n");
/// ```
pub fn render(input: &str) -> String {
    let lines: Vec<&str> = input.lines().collect();
    let mut out = String::with_capacity(input.len() * 2);
    let mut i = 0usize;

    while i < lines.len() {
        let line = lines[i];
        let trimmed = line.trim_start();

        // blank line
        if trimmed.is_empty() {
            i += 1;
            continue;
        }

        // fenced code block
        if let Some(info) = trimmed.strip_prefix("```") {
            let lang = info.trim();
            let mut body = String::new();
            i += 1;
            while i < lines.len() && !lines[i].trim_start().starts_with("```") {
                body.push_str(lines[i]);
                body.push('\n');
                i += 1;
            }
            i += 1; // skip closing fence (or EOF)
            if lang.is_empty() {
                out.push_str("<pre><code>");
            } else {
                out.push_str(&format!(
                    "<pre><code class=\"language-{}\">",
                    escape_html(lang)
                ));
            }
            out.push_str(&escape_html(&body));
            out.push_str("</code></pre>\n");
            continue;
        }

        // ATX heading
        if trimmed.starts_with('#') {
            let level = trimmed.chars().take_while(|&c| c == '#').count();
            if level <= 6 {
                let rest = trimmed[level..].trim();
                // Headings require a space after the hashes (or be bare).
                if trimmed.chars().nth(level).is_none_or(|c| c == ' ') {
                    out.push_str(&format!("<h{level}>{}</h{level}>\n", render_inline(rest)));
                    i += 1;
                    continue;
                }
            }
        }

        // horizontal rule
        if trimmed.chars().all(|c| c == '-' || c == ' ') && trimmed.matches('-').count() >= 3 {
            out.push_str("<hr />\n");
            i += 1;
            continue;
        }

        // blockquote
        if trimmed.starts_with('>') {
            let mut inner = String::new();
            while i < lines.len() {
                let t = lines[i].trim_start();
                if let Some(rest) = t.strip_prefix('>') {
                    inner.push_str(rest.strip_prefix(' ').unwrap_or(rest));
                    inner.push('\n');
                    i += 1;
                } else {
                    break;
                }
            }
            out.push_str("<blockquote>\n");
            out.push_str(&render(&inner));
            out.push_str("</blockquote>\n");
            continue;
        }

        // lists
        if let Some(kind) = list_item(trimmed) {
            let tag = match kind {
                ListKind::Unordered => "ul",
                ListKind::Ordered => "ol",
            };
            out.push_str(&format!("<{tag}>\n"));
            while i < lines.len() {
                let t = lines[i].trim_start();
                match (list_item(t), &kind) {
                    (Some(ListKind::Unordered), ListKind::Unordered) => {
                        let item = t[2..].trim_start();
                        out.push_str(&format!("<li>{}</li>\n", render_inline(item)));
                        i += 1;
                    }
                    (Some(ListKind::Ordered), ListKind::Ordered) => {
                        let dot = t.find('.').expect("ordered item has a dot");
                        let item = t[dot + 1..].trim_start();
                        out.push_str(&format!("<li>{}</li>\n", render_inline(item)));
                        i += 1;
                    }
                    _ => break,
                }
            }
            out.push_str(&format!("</{tag}>\n"));
            continue;
        }

        // paragraph: gather until a blank line or a structural line. The
        // first line is always consumed, even if it *looks* structural —
        // it reached here because every structural branch rejected it
        // (e.g. `#######` has too many hashes) — otherwise the loop over
        // `lines` would never advance.
        let para_start = i;
        let mut para = String::new();
        while i < lines.len() {
            let t = lines[i].trim_start();
            let structural = t.is_empty()
                || t.starts_with('#')
                || t.starts_with("```")
                || t.starts_with('>')
                || list_item(t).is_some();
            if structural && i > para_start {
                break;
            }
            if !para.is_empty() {
                para.push(' ');
            }
            para.push_str(lines[i].trim());
            i += 1;
        }
        out.push_str(&format!("<p>{}</p>\n", render_inline(&para)));
    }
    out
}

fn list_item(trimmed: &str) -> Option<ListKind> {
    if (trimmed.starts_with("- ") || trimmed.starts_with("* ") || trimmed.starts_with("+ "))
        && trimmed.len() > 2
    {
        return Some(ListKind::Unordered);
    }
    let digits = trimmed.chars().take_while(|c| c.is_ascii_digit()).count();
    if digits > 0 && trimmed[digits..].starts_with(". ") {
        return Some(ListKind::Ordered);
    }
    None
}

/// Wraps a rendered fragment into a complete HTML page (what the function
/// returns over HTTP).
pub(crate) fn render_page(title: &str, input: &str) -> String {
    format!(
        "<!DOCTYPE html>\n<html><head><title>{}</title></head><body>\n{}</body></html>\n",
        escape_html(title),
        render(input)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headings_levels() {
        assert_eq!(render("# One"), "<h1>One</h1>\n");
        assert_eq!(render("###### Six"), "<h6>Six</h6>\n");
        assert_eq!(render("####### Seven"), "<p>####### Seven</p>\n");
    }

    #[test]
    fn paragraph_joining() {
        assert_eq!(
            render("line one\nline two\n\nnext para"),
            "<p>line one line two</p>\n<p>next para</p>\n"
        );
    }

    #[test]
    fn emphasis_and_strong() {
        assert_eq!(render("*em*"), "<p><em>em</em></p>\n");
        assert_eq!(render("**bold**"), "<p><strong>bold</strong></p>\n");
        assert_eq!(
            render("**bold with *nested* em**"),
            "<p><strong>bold with <em>nested</em> em</strong></p>\n"
        );
        assert_eq!(render("a * b"), "<p>a * b</p>\n", "lone star is literal");
    }

    #[test]
    fn inline_code_not_parsed_further() {
        assert_eq!(
            render("use `**raw**` here"),
            "<p>use <code>**raw**</code> here</p>\n"
        );
        assert_eq!(render("`a < b`"), "<p><code>a &lt; b</code></p>\n");
    }

    #[test]
    fn links() {
        assert_eq!(
            render("[CRIU](https://criu.org/)"),
            "<p><a href=\"https://criu.org/\">CRIU</a></p>\n"
        );
        assert_eq!(
            render("[broken link("),
            "<p>[broken link(</p>\n",
            "unclosed link is literal"
        );
    }

    #[test]
    fn fenced_code_block() {
        let html = render("```rust\nfn main() { println!(\"<hi>\"); }\n```");
        assert_eq!(
            html,
            "<pre><code class=\"language-rust\">fn main() { println!(&quot;&lt;hi&gt;&quot;); }\n</code></pre>\n"
        );
        let plain = render("```\nx < y\n```");
        assert!(plain.starts_with("<pre><code>"), "{plain}");
    }

    #[test]
    fn unclosed_fence_consumes_rest() {
        let html = render("```\nno close");
        assert_eq!(html, "<pre><code>no close\n</code></pre>\n");
    }

    #[test]
    fn unordered_list() {
        assert_eq!(
            render("- a\n- b\n* c"),
            "<ul>\n<li>a</li>\n<li>b</li>\n<li>c</li>\n</ul>\n"
        );
    }

    #[test]
    fn ordered_list() {
        assert_eq!(
            render("1. first\n2. second"),
            "<ol>\n<li>first</li>\n<li>second</li>\n</ol>\n"
        );
    }

    #[test]
    fn mixed_list_kinds_split() {
        let html = render("- a\n1. b");
        assert_eq!(html, "<ul>\n<li>a</li>\n</ul>\n<ol>\n<li>b</li>\n</ol>\n");
    }

    #[test]
    fn blockquote_recurses() {
        assert_eq!(
            render("> # quoted heading\n> and text"),
            "<blockquote>\n<h1>quoted heading</h1>\n<p>and text</p>\n</blockquote>\n"
        );
    }

    #[test]
    fn horizontal_rule() {
        assert_eq!(render("---"), "<hr />\n");
        assert_eq!(render("- - -"), "<hr />\n");
    }

    #[test]
    fn escaping_everywhere() {
        assert_eq!(
            render("a < b & c > d \"quoted\""),
            "<p>a &lt; b &amp; c &gt; d &quot;quoted&quot;</p>\n"
        );
        assert_eq!(render("# <script>"), "<h1>&lt;script&gt;</h1>\n");
        let link = render("[x](javascript:\"evil\")");
        assert!(link.contains("javascript:&quot;evil&quot;"), "{link}");
    }

    #[test]
    fn escape_html_covers_all_specials() {
        assert_eq!(escape_html("<>&\"'"), "&lt;&gt;&amp;&quot;&#39;");
        assert_eq!(escape_html("plain"), "plain");
    }

    #[test]
    fn page_wrapper() {
        let page = render_page("T & T", "# hi");
        assert!(page.starts_with("<!DOCTYPE html>"));
        assert!(page.contains("<title>T &amp; T</title>"));
        assert!(page.contains("<h1>hi</h1>"));
        assert!(page.ends_with("</body></html>\n"));
    }

    #[test]
    fn empty_input_renders_empty() {
        assert_eq!(render(""), "");
        assert_eq!(render("\n\n\n"), "");
    }

    #[test]
    fn realistic_document_renders_all_constructs() {
        let doc = "\
# Project\n\
\n\
A **systems** project with [docs](https://example.com).\n\
\n\
## Build\n\
\n\
```sh\nmake all\n```\n\
\n\
Steps:\n\
\n\
1. configure\n\
2. compile\n\
\n\
> Note: *experimental*.\n\
\n\
---\n\
\n\
- fast\n\
- small\n";
        let html = render(doc);
        for needle in [
            "<h1>Project</h1>",
            "<h2>Build</h2>",
            "<strong>systems</strong>",
            "<a href=\"https://example.com\">docs</a>",
            "<pre><code class=\"language-sh\">make all",
            "<ol>",
            "<li>configure</li>",
            "<blockquote>",
            "<em>experimental</em>",
            "<hr />",
            "<ul>",
            "<li>fast</li>",
        ] {
            assert!(html.contains(needle), "missing {needle} in:\n{html}");
        }
    }
}
