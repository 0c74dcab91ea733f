#include "interface/render.h"

#include <algorithm>
#include <vector>

#include "util/string_util.h"

namespace ifgen {

namespace {

/// Character canvas with bounds-checked writes.
class Canvas {
 public:
  Canvas(int width, int height)
      : width_(width), height_(height),
        rows_(static_cast<size_t>(std::max(1, height)),
              std::string(static_cast<size_t>(std::max(1, width)), ' ')) {}

  void Put(int x, int y, std::string_view text) {
    if (y < 0 || y >= height_) return;
    auto& row = rows_[static_cast<size_t>(y)];
    for (size_t i = 0; i < text.size(); ++i) {
      int cx = x + static_cast<int>(i);
      if (cx < 0 || cx >= width_) break;
      row[static_cast<size_t>(cx)] = text[i];
    }
  }

  std::string ToString() const {
    // Trim trailing blank rows for compact output.
    size_t last = rows_.size();
    while (last > 0 && rows_[last - 1].find_first_not_of(' ') == std::string::npos) {
      --last;
    }
    std::string out;
    for (size_t i = 0; i < last; ++i) {
      std::string row = rows_[i];
      size_t end = row.find_last_not_of(' ');
      out += end == std::string::npos ? "" : row.substr(0, end + 1);
      out += "\n";
    }
    return out;
  }

 private:
  int width_;
  int height_;
  std::vector<std::string> rows_;
};

void DrawRec(const WidgetNode& n, Canvas* canvas) {
  switch (n.kind) {
    case WidgetKind::kLabel:
      canvas->Put(n.x, n.y, Ellipsize(n.label.empty() && !n.domain.labels.empty()
                                          ? n.domain.labels[0]
                                          : n.label,
                                      static_cast<size_t>(n.width)));
      return;
    case WidgetKind::kTextbox: {
      std::string inner(static_cast<size_t>(std::max(0, n.width - 2)), '_');
      canvas->Put(n.x, n.y, "[" + inner + "]");
      return;
    }
    case WidgetKind::kDropdown: {
      std::string text = n.domain.labels.empty() ? "" : n.domain.labels[0];
      std::string body = Ellipsize(text, static_cast<size_t>(std::max(0, n.width - 4)));
      canvas->Put(n.x, n.y,
                  "[" + PadRight(body, static_cast<size_t>(std::max(0, n.width - 4))) +
                      " v]");
      return;
    }
    case WidgetKind::kSlider: {
      std::string text = n.domain.labels.empty() ? "" : n.domain.labels[0];
      int bar = std::max(4, n.width - static_cast<int>(text.size()) - 2);
      std::string s(static_cast<size_t>(bar), '-');
      s[s.size() / 2] = 'o';
      canvas->Put(n.x, n.y, s + " " + text);
      return;
    }
    case WidgetKind::kRangeSlider: {
      int bar = std::max(6, n.width - static_cast<int>(n.label.size()) - 2);
      std::string s(static_cast<size_t>(bar), '-');
      s[s.size() / 4] = 'o';
      s[(3 * s.size()) / 4] = 'o';
      for (size_t i = s.size() / 4 + 1; i < (3 * s.size()) / 4; ++i) s[i] = '=';
      canvas->Put(n.x, n.y, Ellipsize(n.label, 10) + " " + s);
      return;
    }
    case WidgetKind::kToggle:
    case WidgetKind::kCheckbox: {
      std::string mark = n.kind == WidgetKind::kToggle ? "(#)" : "[x]";
      canvas->Put(n.x, n.y,
                  mark + " " + Ellipsize(n.label, static_cast<size_t>(
                                                      std::max(0, n.width - 4))));
      return;
    }
    case WidgetKind::kRadio: {
      for (size_t i = 0; i < n.domain.labels.size(); ++i) {
        std::string mark = i == 0 ? "(o) " : "( ) ";
        canvas->Put(n.x, n.y + static_cast<int>(i),
                    mark + Ellipsize(n.domain.labels[i],
                                     static_cast<size_t>(std::max(0, n.width - 4))));
      }
      return;
    }
    case WidgetKind::kButtons: {
      int cx = n.x;
      for (size_t i = 0; i < n.domain.labels.size(); ++i) {
        std::string text = Ellipsize(n.domain.labels[i], 12);
        std::string box = (i == 0 ? "<" : "[") + text + (i == 0 ? ">" : "]");
        canvas->Put(cx, n.y, box);
        cx += static_cast<int>(box.size()) + 1;
      }
      return;
    }
    case WidgetKind::kTabs:
    case WidgetKind::kTabLayout: {
      int cx = n.x;
      for (size_t i = 0; i < n.children.size(); ++i) {
        std::string lbl = n.kind == WidgetKind::kTabs && i < n.domain.labels.size()
                              ? n.domain.labels[i]
                              : n.children[i].label;
        std::string tab = (i == 0 ? "/" : "|") + Ellipsize(lbl, 10) + (i == 0 ? "\\" : "|");
        canvas->Put(cx, n.y, tab);
        cx += static_cast<int>(tab.size()) + 1;
      }
      if (!n.children.empty()) DrawRec(n.children[0], canvas);
      return;
    }
    case WidgetKind::kAdder: {
      for (const WidgetNode& c : n.children) DrawRec(c, canvas);
      canvas->Put(n.x, n.y + n.height - 1, "[+ add]");
      return;
    }
    case WidgetKind::kVertical:
    case WidgetKind::kHorizontal: {
      for (const WidgetNode& c : n.children) DrawRec(c, canvas);
      return;
    }
  }
}

void HtmlRec(const WidgetNode& n, std::string* out) {
  auto esc = [](const std::string& s) {
    std::string e;
    for (char c : s) {
      switch (c) {
        case '<':
          e += "&lt;";
          break;
        case '>':
          e += "&gt;";
          break;
        case '&':
          e += "&amp;";
          break;
        default:
          e += c;
      }
    }
    return e;
  };
  switch (n.kind) {
    case WidgetKind::kLabel:
      *out += "<span class=lbl>" + esc(n.label) + "</span>\n";
      return;
    case WidgetKind::kTextbox:
      *out += "<label>" + esc(n.label) + " <input type=text></label>\n";
      return;
    case WidgetKind::kDropdown: {
      *out += "<label>" + esc(n.label) + " <select>";
      for (const std::string& o : n.domain.labels) {
        *out += "<option>" + esc(o) + "</option>";
      }
      *out += "</select></label>\n";
      return;
    }
    case WidgetKind::kSlider:
      *out += "<label>" + esc(n.label) + " <input type=range min=" +
              StrFormat("%g", n.domain.num_lo) + " max=" +
              StrFormat("%g", n.domain.num_hi) + "></label>\n";
      return;
    case WidgetKind::kRangeSlider:
      *out += "<label>" + esc(n.label) + " <input type=range min=" +
              StrFormat("%g", n.domain.num_lo) + " max=" +
              StrFormat("%g", n.domain.num_hi) +
              "> .. <input type=range min=" + StrFormat("%g", n.domain.num_lo) +
              " max=" + StrFormat("%g", n.domain.num_hi) + "></label>\n";
      return;
    case WidgetKind::kToggle:
    case WidgetKind::kCheckbox:
      *out += "<label><input type=checkbox checked> " + esc(n.label) + "</label>\n";
      return;
    case WidgetKind::kRadio: {
      *out += "<fieldset class=radio><legend>" + esc(n.label) + "</legend>";
      for (const std::string& o : n.domain.labels) {
        *out += "<label><input type=radio name=r" + std::to_string(n.choice_id) +
                "> " + esc(o) + "</label>";
      }
      *out += "</fieldset>\n";
      return;
    }
    case WidgetKind::kButtons: {
      *out += "<div class=btns>";
      for (const std::string& o : n.domain.labels) {
        *out += "<button>" + esc(o) + "</button>";
      }
      *out += "</div>\n";
      return;
    }
    case WidgetKind::kTabs:
    case WidgetKind::kTabLayout: {
      *out += "<div class=tabs>";
      for (size_t i = 0; i < n.children.size(); ++i) {
        std::string lbl = n.kind == WidgetKind::kTabs && i < n.domain.labels.size()
                              ? n.domain.labels[i]
                              : n.children[i].label;
        *out += "<details" + std::string(i == 0 ? " open" : "") + "><summary>" +
                esc(lbl) + "</summary>";
        HtmlRec(n.children[i], out);
        *out += "</details>";
      }
      *out += "</div>\n";
      return;
    }
    case WidgetKind::kAdder: {
      *out += "<div class=adder>";
      for (const WidgetNode& c : n.children) HtmlRec(c, out);
      *out += "<button>+ add</button></div>\n";
      return;
    }
    case WidgetKind::kVertical: {
      *out += "<div class=v>";
      for (const WidgetNode& c : n.children) HtmlRec(c, out);
      *out += "</div>\n";
      return;
    }
    case WidgetKind::kHorizontal: {
      *out += "<div class=h>";
      for (const WidgetNode& c : n.children) HtmlRec(c, out);
      *out += "</div>\n";
      return;
    }
  }
}

}  // namespace

std::string RenderAscii(const WidgetTree& tree, const Screen& screen) {
  Canvas canvas(std::max(screen.width, tree.root.width),
                std::max(screen.height, tree.root.height));
  DrawRec(tree.root, &canvas);
  return canvas.ToString();
}

std::string RenderHtml(const WidgetTree& tree, const std::string& title) {
  std::string out =
      "<!doctype html><html><head><meta charset=utf-8><title>" + title +
      "</title><style>\n"
      "body{font-family:sans-serif;margin:16px}\n"
      ".v{display:flex;flex-direction:column;gap:6px;border:1px solid #9bc;"
      "padding:6px;border-radius:4px}\n"
      ".h{display:flex;flex-direction:row;gap:10px;border:1px solid #9bc;"
      "padding:6px;border-radius:4px;align-items:center}\n"
      ".btns button{margin-right:4px}\n"
      "fieldset.radio{border:1px solid #ccc}\n"
      ".adder{border:1px dashed #888;padding:6px}\n"
      "</style></head><body>\n<h3>" +
      title + "</h3>\n";
  HtmlRec(tree.root, &out);
  out += "</body></html>\n";
  return out;
}

}  // namespace ifgen
