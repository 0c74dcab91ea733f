#include "interface/layout.h"

#include <algorithm>

namespace ifgen {

namespace {

constexpr int kHGap = 1;

/// Composes one widget's box from its own template box and its children's
/// boxes, added in order: the single size arithmetic behind both
/// ComputeLayout overloads.
class BoxComposer {
 public:
  BoxComposer(WidgetKind kind, int width, int height)
      : kind_(kind), own_{width, height} {}

  void AddChild(int width, int height, size_t label_len) {
    switch (kind_) {
      case WidgetKind::kVertical:
      case WidgetKind::kAdder:
        w_ = std::max(w_, width);
        h_ += height;
        break;
      case WidgetKind::kHorizontal:
        w_ += width + (w_ > 0 ? kHGap : 0);
        h_ = std::max(h_, height);
        break;
      case WidgetKind::kTabs:
      case WidgetKind::kTabLayout:
        w_ = std::max(w_, width);
        h_ = std::max(h_, height);
        // Tab layout over arbitrary children: bar width from labels.
        tab_labels_ += static_cast<int>(std::min<size_t>(label_len, 10)) + 3;
        break;
      default:
        break;
    }
  }

  WidgetSize Finish() const {
    WidgetSize box = own_;  // interaction widgets carry their template size
    switch (kind_) {
      case WidgetKind::kVertical:
      case WidgetKind::kHorizontal:
        box = {w_, h_};
        break;
      case WidgetKind::kTabs:
      case WidgetKind::kTabLayout: {
        // Width/height set by the size model hold the tab bar; panels stack
        // behind it.
        const int bar_w = kind_ == WidgetKind::kTabLayout
                              ? std::max(10, std::min(tab_labels_, 72))
                              : own_.width;
        box = {std::max(bar_w, w_), 1 + h_};
        break;
      }
      case WidgetKind::kAdder:
        box = {w_ + 2, h_ + 1};  // the "+ add" row
        break;
      default:
        break;
    }
    // Minimal footprint so labels/placeholders remain renderable.
    return {std::max(box.width, 1), std::max(box.height, 1)};
  }

 private:
  WidgetKind kind_;
  WidgetSize own_;
  int w_ = 0;  ///< max or sum of child widths, by kind
  int h_ = 0;  ///< max or sum of child heights, by kind
  int tab_labels_ = 0;
};

void SizeRec(WidgetNode* n) {
  BoxComposer box(n->kind, n->width, n->height);
  for (WidgetNode& c : n->children) {
    SizeRec(&c);
    box.AddChild(c.width, c.height, c.label.size());
  }
  const WidgetSize s = box.Finish();
  n->width = s.width;
  n->height = s.height;
}

void SizeRec(std::vector<FlatWidget>* ws, int i) {
  FlatWidget& w = (*ws)[static_cast<size_t>(i)];  // the array does not grow here
  BoxComposer box(w.kind, w.width, w.height);
  for (int c = w.first_child; c >= 0; c = (*ws)[static_cast<size_t>(c)].next_sibling) {
    SizeRec(ws, c);
    const FlatWidget& k = (*ws)[static_cast<size_t>(c)];
    box.AddChild(k.width, k.height, k.label.size());
  }
  const WidgetSize s = box.Finish();
  w.width = s.width;
  w.height = s.height;
}

LayoutResult Fit(int width, int height, const Screen& screen) {
  LayoutResult r;
  r.width = width;
  r.height = height;
  r.fits = r.width <= screen.width && r.height <= screen.height;
  return r;
}

void PositionRec(WidgetNode* n, int x, int y) {
  n->x = x;
  n->y = y;
  switch (n->kind) {
    case WidgetKind::kVertical: {
      int cy = y;
      for (WidgetNode& c : n->children) {
        PositionRec(&c, x, cy);
        cy += c.height;
      }
      break;
    }
    case WidgetKind::kHorizontal: {
      int cx = x;
      for (WidgetNode& c : n->children) {
        PositionRec(&c, cx, y);
        cx += c.width + kHGap;
      }
      break;
    }
    case WidgetKind::kTabs:
    case WidgetKind::kTabLayout: {
      for (WidgetNode& c : n->children) {
        PositionRec(&c, x, y + 1);  // panels share the area under the bar
      }
      break;
    }
    case WidgetKind::kAdder: {
      int cy = y;
      for (WidgetNode& c : n->children) {
        PositionRec(&c, x + 2, cy);
        cy += c.height;
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace

LayoutResult ComputeLayout(WidgetNode* root, const Screen& screen) {
  SizeRec(root);
  PositionRec(root, 0, 0);
  return Fit(root->width, root->height, screen);
}

LayoutResult ComputeLayout(FlatLayout* layout, const Screen& screen) {
  SizeRec(&layout->widgets, layout->root);
  const FlatWidget& root = layout->widgets[static_cast<size_t>(layout->root)];
  return Fit(root.width, root.height, screen);
}

}  // namespace ifgen
