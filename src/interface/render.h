#pragma once

#include <string>

#include "interface/widget_tree.h"
#include "widgets/widget.h"

namespace ifgen {

/// \brief Renders a laid-out widget tree as ASCII art (the stand-in for the
/// paper's browser dashboard — Figure 6 screenshots) with every widget at
/// its default: first option selected, toggles on.
std::string RenderAscii(const WidgetTree& tree, const Screen& screen);

/// \brief Emits a standalone static HTML page with real form controls, so a
/// generated interface can be opened in a browser.
std::string RenderHtml(const WidgetTree& tree, const std::string& title);

}  // namespace ifgen
